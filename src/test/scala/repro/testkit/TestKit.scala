package repro.testkit

import repro.core.CoverageIndex
import repro.influence.Piece
import repro.util.HashRng

/** The paper's running example (Figure 1): five users a..e (ids 0..4), two
  * topics, six deterministic edges — three on topic z₁, three on topic z₂ —
  * arranged so that under piece t₁=(1,0) seed {a} reaches {a,b,c,d} and under
  * piece t₂=(0,1) seed {e} reaches {e,d,c,b}, exactly the indicator pattern
  * Example 1 reports. With α=3, β=1 the optimal budget-2 plan {{a},{e}} has
  * σ = 0.12 + 3·0.27 + 0.12 ≈ 1.05.
  */
object ExampleGraphs {
  val A = 0L; val B = 1L; val C = 2L; val D = 3L; val E = 4L

  val vertices: Seq[Long] = Seq(A, B, C, D, E)

  val edges: Seq[TopicEdge] = Seq(
    TopicEdge(A, B, Array(1.0, 0.0)),
    TopicEdge(B, C, Array(1.0, 0.0)),
    TopicEdge(C, D, Array(1.0, 0.0)),
    TopicEdge(E, D, Array(0.0, 1.0)),
    TopicEdge(D, C, Array(0.0, 1.0)),
    TopicEdge(C, B, Array(0.0, 1.0)),
  )

  val t1: Piece = Piece.oneHot(0, 2)
  val t2: Piece = Piece.oneHot(1, 2)
  val pieces: Seq[Piece] = Seq(t1, t2)

  /** Deterministic reverse reachability: who reaches `root` under piece `j`. */
  def rrSet(root: Long, piece: Int): Set[Long] = {
    val adj = edges.filter(_.probs(piece) >= 1.0).groupBy(_.dst)
    var reached = Set(root)
    var frontier = List(root)
    while (frontier.nonEmpty) {
      val next = frontier.flatMap(v => adj.getOrElse(v, Nil).map(_.src)).filterNot(reached)
      reached ++= next
      frontier = next
    }
    reached
  }
}

/** Synthetic coverage indices for algorithm unit tests that need no Spark:
  * each (promoter, piece) candidate covers each sample independently with
  * probability `density`, all hash-deterministic in `seed`.
  */
object SyntheticIndex {

  def random(
      theta: Int,
      ell: Int,
      nPromoters: Int,
      nVertices: Long,
      density: Double,
      seed: Long): CoverageIndex = {
    val promoters = Array.tabulate(nPromoters)(_.toLong)
    val cov = Array.tabulate(nPromoters * ell) { c =>
      (0 until theta).filter(s => HashRng.uniform(seed, c.toLong, s.toLong) < density).toArray
    }
    new CoverageIndex(theta, ell, nVertices, promoters, cov)
  }

  /** Index with explicitly given coverage lists (hand-built examples). */
  def explicit(
      theta: Int,
      ell: Int,
      nVertices: Long,
      promoters: Array[Long],
      lists: Map[(Long, Int), Seq[Int]]): CoverageIndex = {
    val cov = Array.tabulate(promoters.length * ell) { c =>
      lists.getOrElse((promoters(c / ell), c % ell), Seq.empty).toArray.distinct.sorted
    }
    new CoverageIndex(theta, ell, nVertices, promoters, cov)
  }
}

/** An index's whole content — shape, pool and every coverage list — as a
  * value, so two indices can be compared list for list.
  */
object IndexContent {
  def apply(idx: CoverageIndex): (Int, Int, Long, Seq[Long], Seq[Seq[Int]]) =
    (idx.theta, idx.ell, idx.nVertices, idx.promoters.toSeq,
      (0 until idx.candidateCount).map(c => idx.coverage(c).toSeq))
}
