package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.influence.Piece
import repro.testkit.TopicEdge
import repro.testkit.ExampleGraphs

class ExactAuSpec extends AnyFunSuite {

  test("activation on a deterministic chain is full reachability") {
    val edges = Seq((0L, 1L, 1.0), (1L, 2L, 1.0))
    val q = ExactAu.activationProbs(edges, Seq(0L, 1L, 2L, 3L), Set(0L))
    assert(q == Map(0L -> 1.0, 1L -> 1.0, 2L -> 1.0, 3L -> 0.0))
  }

  test("activation with empty seeds is zero everywhere") {
    val q = ExactAu.activationProbs(Seq((0L, 1L, 0.5)), Seq(0L, 1L), Set.empty)
    assert(q.values.forall(_ == 0.0))
  }

  test("activation on a single probabilistic edge") {
    val q = ExactAu.activationProbs(Seq((0L, 1L, 0.3)), Seq(0L, 1L), Set(0L))
    assert(q(0L) == 1.0)
    assert(math.abs(q(1L) - 0.3) < 1e-12)
  }

  test("two parallel paths combine by inclusion-exclusion") {
    // 0 -> 1 with p, 0 -> 2 -> 1 with q·r: P(1) = 1 - (1-p)(1-qr)
    val edges = Seq((0L, 1L, 0.4), (0L, 2L, 0.5), (2L, 1L, 0.6))
    val q = ExactAu.activationProbs(edges, Seq(0L, 1L, 2L), Set(0L))
    val expected = 1.0 - (1.0 - 0.4) * (1.0 - 0.5 * 0.6)
    assert(math.abs(q(1L) - expected) < 1e-12)
    assert(math.abs(q(2L) - 0.5) < 1e-12)
  }

  test("dependent paths through a shared edge are handled correctly") {
    // 0 -> 1 (p=0.5), 1 -> 2 (p=1): P(2) = P(1) = 0.5, not 0.25 — the shared
    // coin is flipped once per world.
    val edges = Seq((0L, 1L, 0.5), (1L, 2L, 1.0))
    val q = ExactAu.activationProbs(edges, Seq(0L, 1L, 2L), Set(0L))
    assert(math.abs(q(2L) - 0.5) < 1e-12)
  }

  test("random-edge cap is enforced") {
    val edges = (0 until 25).map(i => (i.toLong, (i + 1).toLong, 0.5))
    intercept[IllegalArgumentException](
      ExactAu.activationProbs(edges, (0L to 25L).toSeq, Set(0L)))
  }

  test("sigma on Example 1's plan {{a},{e}} is 1.05") {
    val plan = Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E)))
    val sigma = ExactAu.sigma(ExampleGraphs.edges, ExampleGraphs.vertices,
      ExampleGraphs.pieces, plan, LogisticParams(3.0, 1.0))
    // 0.12 + 3·0.27 + 0.12 with exact sigmoid values: 1.0452…
    assert(math.abs(sigma - 1.0452) < 1e-3)
  }

  test("Example 2: the adoption utility is not submodular") {
    val params = LogisticParams(3.0, 1.0)
    def s(p: Plan): Double =
      ExactAu.sigma(ExampleGraphs.edges, ExampleGraphs.vertices, ExampleGraphs.pieces, p, params)
    val sx = s(Plan(Vector(Set.empty[Long], Set.empty[Long]))) // S̄x = {∅, ∅}
    val sy = s(Plan(Vector(Set(ExampleGraphs.A), Set.empty[Long]))) // S̄y = {{a}, ∅}
    val sxe = s(Plan(Vector(Set.empty[Long], Set(ExampleGraphs.E)))) // S̄x ∪ S̄
    val sye = s(Plan(Vector(Set(ExampleGraphs.A), Set(ExampleGraphs.E)))) // S̄y ∪ S̄
    val deltaX = sxe - sx
    val deltaY = sye - sy
    assert(math.abs(sx - 0.0) < 1e-12)
    assert(math.abs(deltaX - 0.48) < 5e-3) // paper: 0.48
    assert(math.abs(deltaY - 0.57) < 5e-3) // paper: 0.57
    assert(deltaY > deltaX, "submodularity would require deltaY <= deltaX")
  }

  test("sigma of an empty plan is zero") {
    val sigma = ExactAu.sigma(ExampleGraphs.edges, ExampleGraphs.vertices,
      ExampleGraphs.pieces, Plan.empty(2), LogisticParams(3.0, 1.0))
    assert(sigma == 0.0)
  }

  test("sigma is monotone under plan containment on a probabilistic graph") {
    val pieces = Seq(Piece.oneHot(0, 2), Piece.oneHot(1, 2))
    val edges = Seq(
      TopicEdge(0L, 1L, Array(0.6, 0.2)),
      TopicEdge(1L, 2L, Array(0.5, 0.5)),
      TopicEdge(3L, 2L, Array(0.1, 0.9)),
    )
    val params = LogisticParams(2.0, 1.0)
    val small = Plan(Vector(Set(0L), Set.empty[Long]))
    val big = Plan(Vector(Set(0L), Set(3L)))
    val vs = Seq(0L, 1L, 2L, 3L)
    assert(ExactAu.sigma(edges, vs, pieces, small, params) <=
      ExactAu.sigma(edges, vs, pieces, big, params))
  }

  test("a seed user counts as activated for its own piece") {
    val pieces = Seq(Piece.oneHot(0, 1))
    val params = LogisticParams(3.0, 1.0)
    val sigma = ExactAu.sigma(Seq.empty, Seq(0L, 1L), pieces,
      Plan(Vector(Set(0L))), params)
    assert(math.abs(sigma - params.adoptionProb(1)) < 1e-12)
  }

  test("plan arity must match the campaign") {
    intercept[IllegalArgumentException](
      ExactAu.sigma(ExampleGraphs.edges, ExampleGraphs.vertices,
        ExampleGraphs.pieces, Plan.empty(3), LogisticParams(3.0, 1.0)))
  }
}
