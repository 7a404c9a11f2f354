package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.SyntheticIndex

class BranchAndBoundSpec extends AnyFunSuite {

  private val params = LogisticParams(3.0, 1.0)
  private val guarantee = 1.0 - math.exp(-1.0)

  test("defaultOrder sorts by coverage size descending, index ascending") {
    val idx = SyntheticIndex.random(theta = 50, ell = 2, nPromoters = 6,
      nVertices = 100, density = 0.3, seed = 30L)
    val order = BranchAndBound.defaultOrder(idx)
    assert(order.toSet == (0 until idx.candidateCount).toSet)
    order.sliding(2).foreach { case Array(a, b) =>
      val (ca, cb) = (idx.coverage(a).length, idx.coverage(b).length)
      assert(ca > cb || (ca == cb && a < b))
    }
  }

  test("BAB meets the (1 - 1/e) guarantee against brute force on random instances") {
    for (seed <- 1 to 12) {
      val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 4,
        nVertices = 40, density = 0.35, seed = 700L + seed)
      val res = BranchAndBound.runGreedy(idx, params, BabConfig(k = 3, gapTol = 0.0, maxBoundCalls = 20000))
      val (_, opt) = BruteForce.bestByAu(idx, params, 3)
      assert(res.sigma >= guarantee * opt - 1e-9,
        s"seed=$seed: bab=${res.sigma} opt=$opt")
    }
  }

  test("BAB-P meets the (1 - 1/e - eps) guarantee against brute force") {
    for (seed <- 1 to 12; eps <- Seq(0.2, 0.5)) {
      val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 4,
        nVertices = 40, density = 0.35, seed = 800L + seed)
      val res = BranchAndBound.runProgressive(idx, params, BabConfig(k = 3, gapTol = 0.0, maxBoundCalls = 20000), eps)
      val (_, opt) = BruteForce.bestByAu(idx, params, 3)
      assert(res.sigma >= (guarantee - eps) * opt - 1e-9,
        s"seed=$seed eps=$eps: bab-p=${res.sigma} opt=$opt")
    }
  }

  test("BAB with zero gap typically finds the brute-force optimum on easy instances") {
    var hits = 0
    val trials = 10
    for (seed <- 1 to trials) {
      val idx = SyntheticIndex.random(theta = 25, ell = 2, nPromoters = 4,
        nVertices = 50, density = 0.4, seed = 900L + seed)
      val res = BranchAndBound.runGreedy(idx, params, BabConfig(k = 2, gapTol = 0.0, maxBoundCalls = 20000))
      val (_, opt) = BruteForce.bestByAu(idx, params, 2)
      if (math.abs(res.sigma - opt) < 1e-9) hits += 1
    }
    assert(hits >= trials / 2, s"exact hits: $hits/$trials")
  }

  test("BAB is at least as good as its root greedy solution") {
    for (seed <- 1 to 8) {
      val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
        nVertices = 80, density = 0.3, seed = 1000L + seed)
      val env = new EnvelopeTable(params, idx.ell)
      val order = BranchAndBound.defaultOrder(idx)
      val rootGreedy = new GreedyBounder(idx, env, order, params)
        .computeBound(Array.empty, 0, 4)
      val res = BranchAndBound.runGreedy(idx, params, BabConfig(k = 4, gapTol = 0.0, maxBoundCalls = 20000))
      assert(res.sigma >= rootGreedy.sigma - 1e-12)
    }
  }

  test("result invariants: budget, bound, gap, counters") {
    val idx = SyntheticIndex.random(theta = 40, ell = 3, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 31L)
    val res = BranchAndBound.runGreedy(idx, params, BabConfig(k = 5, gapTol = 0.01, maxBoundCalls = 20000))
    assert(res.candidates.length <= 5)
    assert(res.plan.size == res.candidates.length)
    assert(res.sigma <= res.upperBound + 1e-9)
    assert(res.gap >= 0)
    assert(res.boundCalls >= 1)
    assert(res.tauEvals > 0)
    assert(math.abs(idx.au(res.candidates.toSeq, params) - res.sigma) < 1e-9)
  }

  test("maxBoundCalls caps the search and still returns a valid plan") {
    val idx = SyntheticIndex.random(theta = 60, ell = 3, nPromoters = 10,
      nVertices = 120, density = 0.25, seed = 32L)
    val res = BranchAndBound.runGreedy(idx, params, BabConfig(k = 6, gapTol = 0.0, maxBoundCalls = 5))
    assert(res.boundCalls <= 5)
    assert(res.candidates.length <= 6)
    assert(res.sigma > 0)
  }

  test("a loose gap tolerance terminates no later than a tight one") {
    val idx = SyntheticIndex.random(theta = 60, ell = 2, nPromoters = 8,
      nVertices = 120, density = 0.3, seed = 33L)
    val loose = BranchAndBound.runGreedy(idx, params, BabConfig(k = 4, gapTol = 0.2, maxBoundCalls = 20000))
    val tight = BranchAndBound.runGreedy(idx, params, BabConfig(k = 4, gapTol = 0.0, maxBoundCalls = 20000))
    assert(loose.boundCalls <= tight.boundCalls)
    assert(tight.sigma >= loose.sigma - 1e-9)
  }

  test("BAB is deterministic") {
    val idx = SyntheticIndex.random(theta = 40, ell = 2, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 34L)
    val a = BranchAndBound.runGreedy(idx, params, BabConfig(k = 4, maxBoundCalls = 20000))
    val b = BranchAndBound.runGreedy(idx, params, BabConfig(k = 4, maxBoundCalls = 20000))
    assert(a.candidates.toSeq == b.candidates.toSeq)
    assert(a.sigma == b.sigma)
  }

  test("single-piece campaigns reduce to IM-style seed selection") {
    val idx = SyntheticIndex.random(theta = 40, ell = 1, nPromoters = 6,
      nVertices = 80, density = 0.3, seed = 35L)
    val res = BranchAndBound.runGreedy(idx, params, BabConfig(k = 3, gapTol = 0.0, maxBoundCalls = 20000))
    val (_, opt) = BruteForce.bestByAu(idx, params, 3)
    assert(res.sigma >= guarantee * opt - 1e-9)
    assert(res.plan.ell == 1)
  }

  test("budget larger than the candidate space selects everything useful") {
    val idx = SyntheticIndex.random(theta = 20, ell = 2, nPromoters = 2,
      nVertices = 40, density = 0.4, seed = 36L)
    val res = BranchAndBound.runGreedy(idx, params, BabConfig(k = 50, gapTol = 0.0, maxBoundCalls = 20000))
    val all = idx.au((0 until idx.candidateCount).toSeq, params)
    assert(math.abs(res.sigma - all) < 1e-9)
  }
}
