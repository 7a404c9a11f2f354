package perfbench

import repro.core.{CoverageIndex, LogisticParams, Plan}
import scala.collection.mutable

/** Counts operations — method runs and output checks — and the failed ones.
  * A failed check is recorded and reported, never dropped.
  */
final class Ops {
  var total = 0
  var failed = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def ran(): Unit = total += 1

  def check(name: String)(cond: => Boolean): Unit = {
    total += 1
    val ok =
      try cond
      catch { case e: Exception => Console.err.println(s"[perfbench] check '$name' threw: $e"); false }
    if (!ok) {
      failed += 1
      failures += name
      Console.err.println(s"[perfbench] FAILED check: $name")
    }
  }
}

/** The output checks every run makes. */
object Checks {

  def relClose(a: Double, b: Double, tol: Double): Boolean =
    math.abs(a - b) <= tol * math.max(math.abs(a), math.abs(b)) + 1e-300

  /** |plan| ≤ k, every assignment is a pool promoter on a campaign piece, and
    * σ recomputed from the plan by `CoverageIndex.au` equals the reported σ.
    */
  def plan(ops: Ops, method: String, idx: CoverageIndex, plan: Plan, reported: Double,
      k: Int, params: LogisticParams): Unit = {
    ops.check(s"$method: plan size ${plan.size} <= k=$k")(plan.size <= k)
    ops.check(s"$method: every candidate is in the promoter pool")(
      plan.ell == idx.ell && plan.assignments.forall { case (v, j) =>
        j >= 0 && j < idx.ell && java.util.Arrays.binarySearch(idx.promoters, v) >= 0
      })
    ops.check(s"$method: recomputed sigma equals reported $reported")(
      relClose(idx.auOfPlan(plan, params), reported, 1e-9))
  }

  /** The bench suites' shape checks: BAB is no worse than either baseline. */
  def shape(ops: Ops, sigma: Map[String, Double]): Unit = {
    ops.check(s"sigma_BAB ${sigma("BAB")} >= 0.999 * sigma_TIM ${sigma("TIM")}")(
      sigma("BAB") >= 0.999 * sigma("TIM"))
    ops.check(s"sigma_BAB ${sigma("BAB")} >= sigma_IM ${sigma("IM")}")(sigma("BAB") >= sigma("IM"))
  }

  /** Pinned outputs for the default inputs of each workload. */
  final case class Pins(edges: Long, realizedEdges: Long, idx: Long, mixtureIdx: Long, sigma: Map[String, Double])

  val pins: Map[String, Pins] = Map(
    "dblp-prepare" -> Pins(-4794079389608612781L, 600000L, 5643380259578195507L, 8178801247673429435L,
      Map("IM" -> 278.35437111794465, "TIM" -> 541.9169640605454,
        "BAB" -> 926.1718266670233, "BAB-P" -> 780.9434591272295)),
    "lastfm-theta1m" -> Pins(-959279533128860543L, 15000L, 6586518019977960369L, 8588986094645922397L,
      Map("IM" -> 55.941913387962046, "TIM" -> 58.577377952509195,
        "BAB" -> 103.62076369406104, "BAB-P" -> 103.01188410252394)),
    "mini-warmup" -> Pins(3779717643583363707L, 1800L, -8907004796155448564L, -650913293616529832L,
      Map("IM" -> 4.216664602776675, "TIM" -> 4.985741794478075,
        "BAB" -> 7.831118997302784, "BAB-P" -> 7.831118997302784)),
    "lastfm-search" -> Pins(-959279533128860543L, 15000L, 2994252670056318757L, 6934960767855101179L,
      Map("IM" -> 11.888430589191756, "TIM" -> 13.50879667239725,
        "BAB" -> 21.350581402185497, "BAB-P" -> 21.252387637062085)),
  )

  /** The graph is seed-independent, so its digest is checked on every run;
    * the default seed must also reproduce the pinned indices exactly, and no
    * method may lose utility against its pinned σ (a gain is allowed).
    */
  def pinned(ops: Ops, workload: String, in: Inputs, edges: Long, realizedEdges: Long, idx: Long,
      mixtureIdx: Long, sigma: Map[String, Double]): Unit = {
    Console.err.println(
      s"[perfbench] digests $workload seed ${in.prepareSeed}: edges=${edges}L realized=${realizedEdges}L " +
      s"idx=${idx}L mixture=${mixtureIdx}L sigma=${sigma.toSeq.sorted.mkString(", ")}")
    pins.get(workload) match {
      case None => ops.check(s"$workload: has pinned outputs")(false)
      case Some(p) =>
        ops.check(s"$workload: edge digest $edges == ${p.edges}")(edges == p.edges)
        ops.check(s"$workload: realized edges $realizedEdges == ${p.realizedEdges}")(realizedEdges == p.realizedEdges)
        if (in.isDefault) {
          ops.check(s"$workload: campaign index digest $idx == ${p.idx}")(idx == p.idx)
          ops.check(s"$workload: mixture index digest $mixtureIdx == ${p.mixtureIdx}")(mixtureIdx == p.mixtureIdx)
          for ((m, want) <- p.sigma.toSeq.sorted)
            ops.check(s"$workload: sigma_$m ${sigma(m)} >= pinned $want")(sigma(m) >= want * (1 - 1e-9))
        }
    }
  }
}
