package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CoverageIndex
import scala.util.Random

class DigestSpec extends AnyFunSuite {

  private val edges: Seq[(Long, Long, Seq[Double])] =
    (0 until 500).map(i => (i.toLong % 37, (i * 7L) % 101, Seq(i * 0.001, 0.0, 1.0 / (i + 1))))

  private def edgeDigest(es: Seq[(Long, Long, Seq[Double])]): Long =
    Digest.unordered(es.map { case (s, d, p) => Digest.edge(s, d, p) })

  test("edge digest does not depend on order") {
    val base = edgeDigest(edges)
    for (seed <- 1 to 5) assert(edgeDigest(new Random(seed).shuffle(edges)) == base)
    assert(edgeDigest(edges.reverse) == base)
  }

  test("edge digest sees a changed probability, a dropped edge and a duplicate") {
    val base = edgeDigest(edges)
    val (s, d, p) = edges(10)
    assert(edgeDigest(edges.updated(10, (s, d, p.updated(2, math.nextUp(p(2)))))) != base)
    assert(edgeDigest(edges.tail) != base)
    assert(edgeDigest(edges :+ edges.head) != base)
  }

  test("element hash depends on field order") {
    assert(Digest.element(1L, 2L) != Digest.element(2L, 1L))
  }

  private def index(lists: Array[Array[Int]]): CoverageIndex =
    new CoverageIndex(theta = 50, ell = 2, nVertices = 100L, promoters = Array(3L, 8L, 20L), lists)

  private val lists = Array(Array(1, 4, 9), Array(2), Array.empty[Int], Array(7, 8), Array(0, 49), Array(5))

  test("index digest does not depend on the order within coverage lists") {
    val shuffled = lists.map(l => new Random(l.length).shuffle(l.toSeq).toArray.reverse)
    assert(Digest.index(index(shuffled)) == Digest.index(index(lists)))
  }

  test("index digest sees a moved entry and a changed shape") {
    val base = Digest.index(index(lists))
    val moved = lists.clone(); moved(0) = Array(1, 4); moved(1) = Array(2, 9)
    assert(Digest.index(index(moved)) != base)
    assert(Digest.index(new CoverageIndex(51, 2, 100L, Array(3L, 8L, 20L), lists)) != base)
  }
}
