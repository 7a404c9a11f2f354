package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("percentile is nearest-rank") {
    val xs = (1 to 100).map(_.toDouble).reverse
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 99) == 99.0)
    assert(Stats.percentile(xs, 100) == 100.0)
    assert(Stats.percentile(xs, 0.5) == 1.0)
  }

  test("tail is the highest percentile with at least ten samples beyond it") {
    assert(Stats.tailPercentile(2000).contains(99.0))   // 20 beyond p99, 2 beyond p99.9
    assert(Stats.tailPercentile(1000).contains(99.0))   // exactly 10 beyond
    assert(Stats.tailPercentile(999).contains(90.0))    // 9 beyond p99
    assert(Stats.tailPercentile(10000).contains(99.9))
    assert(Stats.tailPercentile(20).contains(50.0))
    assert(Stats.tailPercentile(19).isEmpty)
    assert(Stats.tailPercentile(1).isEmpty)
  }

  test("the reported tail always has at least ten larger samples") {
    for (n <- 20 to 3000 by 7) {
      val xs = (1 to n).map(_.toDouble)
      val s = Stats.summarize(xs)
      val tail = s.tail.get
      assert(xs.count(_ > tail) >= Stats.MinBeyond, s"n=$n p=${s.tailPct}")
      assert(s.n == n)
    }
  }

  test("a sample too small for a tail reports the median in its place") {
    val s = Stats.summarize(Seq(5.0, 1.0, 3.0))
    assert(s.tail.isEmpty && s.tailOrMedian == 3.0 && s.tailPctOrMedian == 50.0)
  }
}
