package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.LogisticParams
import repro.exp.ExperimentRunner.{MethodResult, Prepared, fmt, markdownTable, restrict, runAll}
import repro.graphgen.GraphSpec

/** The paper's evaluation (§VI), one definition per table or figure.
  *
  * Each figure sweeps one parameter of Table IV and holds the others at their
  * defaults, on one [[prepare]] per dataset: the MRR samples do not depend on
  * k, β/α or ε, and sampling at the largest ℓ and restricting to a smaller one
  * is exact (`ExperimentRunner.restrict`). The spark-submit jobs print these
  * tables; the bench suites assert the paper's shapes on them.
  */
object Figures {

  /** Table IV defaults of k, ℓ and β/α; ε's is `runAll`'s default. */
  val K = 50
  val Ell = 3
  val Ratio = 0.5

  /** The largest ℓ any figure uses (Figure 5), sampled once per dataset. */
  val MaxEll = 5

  /** θ per dataset, scaled down from the paper's 10⁶ (DESIGN.md §3). */
  def theta(spec: GraphSpec): Int = if (spec.name == "lastfm") 20000 else 10000

  /** The one sampling pass every table and figure of `spec` reads. */
  def prepare(spark: SparkSession, spec: GraphSpec, theta: Int): Prepared =
    ExperimentRunner.prepare(spark, spec, MaxEll, theta)

  /** One method's result at one value of a figure's swept parameter. */
  final case class Point[P](value: P, result: MethodResult)

  /** A figure's data series on one dataset: every method at every value of
    * the swept parameter `param`, in sweep order.
    */
  final case class Sweep[P](dataset: String, param: String, points: Seq[Point[P]]) {
    def values: Seq[P] = points.map(_.value).distinct

    def at(value: P, method: String): MethodResult =
      points.collectFirst { case Point(`value`, r) if r.name == method => r }
        .getOrElse(throw new NoSuchElementException(s"$dataset: no $method at $param=$value"))

    def table: String = markdownTable(
      Seq("dataset", param, "method", "utility", "time_ms", "tau_evals", "bound_calls", "gap"),
      points.map { case Point(v, r) =>
        Seq(dataset, v.toString, r.name, fmt(r.utility), ms(r.timeNs), r.tauEvals.toString,
          r.boundCalls.toString, fmt(r.gap))
      })
  }

  private val defaults = LogisticParams.fromRatio(Ratio)

  private def sweep[P](prep: Prepared, param: String, values: Seq[P])(run: P => Seq[MethodResult]): Sweep[P] =
    Sweep(prep.spec.name, param, for (v <- values; r <- run(v)) yield Point(v, r))

  /** Table III: dataset statistics and MRR sample time, a row per dataset. */
  def datasetStats(preps: Seq[Prepared]): String = markdownTable(
    Seq("dataset", "|V|", "|E|", "avg degree", "topics", "theta", "sample time"),
    preps.map { p =>
      Seq(p.spec.name, p.spec.nVertices.toString, p.realizedEdges.toString,
        fmt(p.realizedEdges.toDouble / p.spec.nVertices), p.spec.numTopics.toString,
        p.idx.theta.toString, s"${p.sampleTimeMs} ms")
    })

  /** Figure 3: BAB-P vs its progressive-threshold parameter ε. */
  def varyEpsilon(prep: Prepared): Sweep[Double] = {
    val p = restrict(prep, Ell)
    sweep(prep, "epsilon", Seq(0.1, 0.3, 0.5, 0.7, 0.9))(eps => runAll(p, K, defaults, eps, Set("BAB-P")))
  }

  /** Figure 4: the four methods vs the budget k. */
  def varyK(prep: Prepared): Sweep[Int] = {
    val p = restrict(prep, Ell)
    sweep(prep, "k", Seq(10, 20, 50, 100))(k => runAll(p, k, defaults))
  }

  /** Figure 5: the four methods vs the number of pieces ℓ. */
  def varyL(prep: Prepared): Sweep[Int] =
    sweep(prep, "l", 1 to MaxEll)(ell => runAll(restrict(prep, ell), K, defaults))

  /** Figure 6: the four methods vs the adoption-difficulty ratio β/α. */
  def varyBetaAlpha(prep: Prepared): Sweep[Double] = {
    val p = restrict(prep, Ell)
    sweep(prep, "beta/alpha", Seq(0.3, 0.5, 0.7))(ratio => runAll(p, K, LogisticParams.fromRatio(ratio)))
  }

  /** §VI-C: BAB vs BAB-P at one budget of Figure 4. */
  final case class Speedup(dataset: String, k: Int, bab: MethodResult, babp: MethodResult) {
    def timeRatio: Double = bab.timeNs.toDouble / math.max(babp.timeNs, 1L)
    def evalRatio: Double = bab.tauEvals.toDouble / math.max(babp.tauEvals, 1L)
    def utilityRatio: Double = babp.utility / math.max(bab.utility, 1e-9)
  }

  /** The speedup rows: Figure 4's k = 50 and k = 100 points. */
  def speedup(fig4: Sweep[Int]): Seq[Speedup] =
    Seq(50, 100).map(k => Speedup(fig4.dataset, k, fig4.at(k, "BAB"), fig4.at(k, "BAB-P")))

  def speedupTable(rows: Seq[Speedup]): String = markdownTable(
    Seq("dataset", "k", "BAB_ms", "BAB-P_ms", "speedup", "tau_eval_ratio", "utility_ratio"),
    rows.map { s =>
      Seq(s.dataset, s.k.toString, ms(s.bab.timeNs), ms(s.babp.timeNs),
        fmt(s.timeRatio), fmt(s.evalRatio), fmt(s.utilityRatio))
    })

  /** Nanoseconds as milliseconds with three decimals. */
  def ms(ns: Long): String = f"${ns / 1e6}%.3f"
}
