package repro.influence

import org.apache.spark.sql.DataFrame

/** The topic graph's reverse adjacency in compressed sparse rows, with one
  * probability row per sampled piece.
  *
  * The in-edges of vertex `v` are the slots `offsets(v) until offsets(v + 1)`:
  * `sources(e)` is the edge's source and `probs(r)(e)` its activation
  * probability `pieces(r).edgeProb(p(e|·))` under row `r`'s piece. A
  * zero-probability slot is an edge absent from that piece's influence graph.
  */
final class ReverseCsr(
    val nVertices: Int,
    val offsets: Array[Int],
    val sources: Array[Int],
    val probs: Array[Array[Double]]) extends Serializable {

  require(offsets.length == nVertices + 1, s"need ${nVertices + 1} offsets, got ${offsets.length}")
  require(probs.forall(_.length == sources.length), "every probability row needs one entry per edge")

  def numRows: Int = probs.length
}

object ReverseCsr {

  /** Vertex ids and edge slots are `Int`s: both counts must fit. */
  def checkSize(nVertices: Long, numEdges: Long): Unit = {
    require(nVertices > 0 && nVertices <= Int.MaxValue,
      s"the reverse CSR needs 0 < |V| ≤ ${Int.MaxValue}, got $nVertices")
    require(numEdges <= Int.MaxValue,
      s"the reverse CSR holds at most ${Int.MaxValue} edges, got $numEdges")
  }

  /** One executor partition's edges: parallel arrays of destination, source
    * and, per row, the edge's probability.
    */
  private final case class Block(dst: Array[Int], src: Array[Int], probs: Array[Array[Double]])

  /** Build the CSR of `edges` (`(src, dst, probs)`, ids in [0, nVertices))
    * with one row per piece of `rows`, from a single `collect`. The piece
    * probabilities are computed on the executors; the collected edges are placed
    * by a counting sort on `dst`.
    */
  def collect(edges: DataFrame, nVertices: Long, rows: Seq[Piece]): ReverseCsr = {
    checkSize(nVertices, 0L)
    require(rows.nonEmpty, "need at least one piece")
    val n = nVertices.toInt
    val pieces = rows.toArray
    val blocks = edges.select("src", "dst", "probs").rdd.mapPartitions { it =>
      val dst = Array.newBuilder[Int]
      val src = Array.newBuilder[Int]
      val probs = Array.fill(pieces.length)(Array.newBuilder[Double])
      it.foreach { r =>
        val s = r.getLong(0)
        val d = r.getLong(1)
        require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s, $d) has an endpoint outside [0, $n)")
        src += s.toInt
        dst += d.toInt
        val p = r.getSeq[Double](2).toArray
        var j = 0
        while (j < pieces.length) { probs(j) += pieces(j).edgeProb(p); j += 1 }
      }
      Iterator.single(Block(dst.result(), src.result(), probs.map(_.result())))
    }.collect()
    checkSize(nVertices, blocks.iterator.map(_.dst.length.toLong).sum)

    val offsets = new Array[Int](n + 1)
    for (b <- blocks; d <- b.dst) offsets(d + 1) += 1
    var v = 0
    while (v < n) { offsets(v + 1) += offsets(v); v += 1 }
    val m = offsets(n)
    val sources = new Array[Int](m)
    val probs = Array.fill(pieces.length)(new Array[Double](m))
    val next = java.util.Arrays.copyOf(offsets, n)
    for (b <- blocks) {
      var i = 0
      while (i < b.dst.length) {
        val e = next(b.dst(i))
        next(b.dst(i)) = e + 1
        sources(e) = b.src(i)
        var j = 0
        while (j < probs.length) { probs(j)(e) = b.probs(j)(i); j += 1 }
        i += 1
      }
    }
    new ReverseCsr(n, offsets, sources, probs)
  }
}
