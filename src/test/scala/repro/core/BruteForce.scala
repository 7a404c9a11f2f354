package repro.core

import repro.influence.Piece
import repro.testkit.TopicEdge

/** Exhaustive OIPA solvers for tiny instances — the reference optimum that
  * approximation-ratio tests compare against. Exponential; test-scale only.
  */
object BruteForce {

  /** Optimal candidate set of size ≤ k by AU on a coverage index. σ is
    * monotone (§IV-A), so only exact-size-k subsets need enumeration.
    */
  def bestByAu(idx: CoverageIndex, params: LogisticParams, k: Int): (Array[Int], Double) = {
    val m = idx.candidateCount
    val size = math.min(k, m)
    var bestSet = Array.empty[Int]
    var bestVal = 0.0
    (0 until m).combinations(size).foreach { combo =>
      val v = idx.au(combo, params)
      if (v > bestVal) { bestVal = v; bestSet = combo.toArray }
    }
    (bestSet, bestVal)
  }

  /** Optimal τ(·|S̄ᵃ = ∅)-maximizing candidate set of size ≤ k — the reference
    * for ComputeBound's (1−1/e) guarantee.
    */
  def bestByTau(idx: CoverageIndex, env: EnvelopeTable, k: Int): (Array[Int], Double) = {
    val m = idx.candidateCount
    val size = math.min(k, m)
    var bestSet = Array.empty[Int]
    var bestVal = 0.0
    (0 until m).combinations(size).foreach { combo =>
      val counts = idx.coverageCounts(combo)
      var t = 0.0
      var i = 0
      while (i < idx.theta) { t += env.value(0, counts(i)); i += 1 }
      val v = idx.scale * t
      if (v > bestVal) { bestVal = v; bestSet = combo.toArray }
    }
    (bestSet, bestVal)
  }

  /** Optimal plan of size ≤ k by *exact* σ (live-edge enumeration). */
  def bestExact(
      edges: Seq[TopicEdge],
      vertices: Seq[Long],
      pieces: Seq[Piece],
      promoterPool: Seq[Long],
      k: Int,
      params: LogisticParams): (Plan, Double) = {
    val candidates = for (v <- promoterPool; j <- pieces.indices) yield (v, j)
    val size = math.min(k, candidates.length)
    var best = Plan.empty(pieces.length)
    var bestVal = 0.0
    candidates.combinations(size).foreach { combo =>
      val plan = Plan.fromAssignments(pieces.length, combo)
      val v = ExactAu.sigma(edges, vertices, pieces, plan, params)
      if (v > bestVal) { bestVal = v; best = plan }
    }
    (best, bestVal)
  }
}
