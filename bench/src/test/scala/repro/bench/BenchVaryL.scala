package repro.bench

import repro.graphgen.Datasets

/** Figure 5: adoption utility and selection time vs the number of viral
  * pieces ℓ (k=50, β/α=0.5, ε=0.5). One sampling pass at ℓ=5 serves every ℓ
  * via exact piece-prefix restriction.
  */
class BenchVaryL extends BenchBase {

  Datasets.all.foreach { spec =>
    test(s"Figure 5 — vary l on ${spec.name}") {
      val fig = figures(spec).fig5
      report(s"Figure 5 — vary l (${spec.name})", fig.table)
      fig.values.foreach { ell =>
        assert(fig.at(ell, "BAB").utility >= fig.at(ell, "TIM").utility * 0.999, s"l=$ell")
        assert(fig.at(ell, "BAB").utility >= fig.at(ell, "IM").utility - 1e-9, s"l=$ell")
      }
    }
  }

  test("the BAB advantage over TIM widens with more pieces") {
    // Paper §VI-D: single-piece baselines degrade as l grows because a user
    // needs several pieces to adopt. At l=1 TIM equals the problem BAB
    // solves; by l=5 BAB must be strictly ahead.
    Datasets.all.foreach { spec =>
      val fig = figures(spec).fig5
      def gainAt(ell: Int): Double =
        fig.at(ell, "BAB").utility / math.max(fig.at(ell, "TIM").utility, 1e-9)
      val g1 = gainAt(1)
      val g5 = gainAt(5)
      assert(g1 <= 1.05, s"${spec.name}: at l=1 TIM should nearly match BAB, ratio $g1")
      assert(g5 >= g1 * 0.999, s"${spec.name}: ratio should not shrink: l1=$g1 l5=$g5")
    }
  }
}
