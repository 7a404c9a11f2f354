package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.Random

/** The timing wrapper must not change the search it times. */
class TimedBounderSpec extends AnyFunSuite {

  /** A power-law-ish random index on which β/α = 0.3 makes the search branch. */
  private val idx: CoverageIndex = {
    val rnd = new Random(5)
    val theta = 400
    val ell = 3
    val promoters = (0 until 25).map(_.toLong * 4).toArray
    val lists = Array.tabulate(promoters.length * ell) { c =>
      val size = (theta * 0.3 / (1 + c / ell)).toInt + rnd.nextInt(5)
      rnd.shuffle((0 until theta).toVector).take(size).sorted.toArray
    }
    new CoverageIndex(theta, ell, 1000L, promoters, lists)
  }
  private val params = LogisticParams.fromRatio(0.3)
  private val cfg = BabConfig(k = 6, gapTol = 0.01, maxBoundCalls = 300)
  private def env = new EnvelopeTable(params, idx.ell)
  private val order = BranchAndBound.defaultOrder(idx)

  private def assertSame(a: BabResult, b: BabResult): Unit = {
    assert(a.candidates.sameElements(b.candidates))
    assert(a.sigma == b.sigma)
    assert(a.boundCalls == b.boundCalls)
    assert(a.tauEvals == b.tauEvals)
  }

  test("wrapped greedy bounder reproduces runGreedy") {
    val timed = new TimedBounder(new GreedyBounder(idx, env, order, params))
    val r = BranchAndBound.run(idx, params, timed, cfg)
    assert(r.boundCalls > 1, "the fixture must branch")
    assertSame(r, BranchAndBound.runGreedy(idx, params, cfg))
    assert(timed.calls.length == r.boundCalls)
    assert(timed.calls.forall { case (a, b) => b >= a })
  }

  test("wrapped progressive bounder reproduces runProgressive") {
    val timed = new TimedBounder(new ProgressiveBounder(idx, env, order, params, 0.5))
    val r = BranchAndBound.run(idx, params, timed, cfg)
    assert(r.boundCalls > 1, "the fixture must branch")
    assertSame(r, BranchAndBound.runProgressive(idx, params, cfg, 0.5))
    assert(timed.calls.length == r.boundCalls)
  }

  test("the CELF bounder the plan check uses takes runGreedy's path") {
    val celf = BranchAndBound.run(idx, params, new GreedyBounder(idx, env, order, params, useCelf = true), cfg)
    val plain = BranchAndBound.runGreedy(idx, params, cfg)
    assert(celf.candidates.sameElements(plain.candidates))
    assert(celf.sigma == plain.sigma && celf.boundCalls == plain.boundCalls)
  }
}
