package perfbench

/** Order statistics for timings.
  *
  * A timing is reported as its median plus the highest percentile that still
  * has at least ten samples beyond it, so a tail figure is never read off a
  * handful of points.
  */
object Stats {

  /** Percentiles tried for the tail, highest first. */
  val TailLadder: Seq[Double] = Seq(99.99, 99.9, 99.0, 90.0, 50.0)

  /** Samples that must lie beyond a reported percentile. */
  val MinBeyond = 10

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  /** Nearest-rank percentile, `p` in (0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p > 0 && p <= 100, s"percentile must lie in (0, 100], got $p")
    val s = xs.sorted
    s(math.max(0, rankOf(s.length, p) - 1))
  }

  /** The highest ladder percentile with at least `MinBeyond` samples ranked
    * above it, or None when the sample is too small for any.
    */
  def tailPercentile(n: Int): Option[Double] =
    TailLadder.find(p => n - rankOf(n, p) >= MinBeyond)

  private def rankOf(n: Int, p: Double): Int = math.ceil(p / 100.0 * n - 1e-9).toInt

  /** Median and tail of one timing, with its sample count. */
  final case class Summary(n: Int, median: Double, tailPct: Option[Double], tail: Option[Double]) {
    /** The tail value, or the median when the sample is too small for a tail. */
    def tailOrMedian: Double = tail.getOrElse(median)
    def tailPctOrMedian: Double = tailPct.getOrElse(50.0)
  }

  def summarize(xs: Seq[Double]): Summary = {
    val p = tailPercentile(xs.length)
    Summary(xs.length, median(xs), p, p.map(percentile(xs, _)))
  }
}
