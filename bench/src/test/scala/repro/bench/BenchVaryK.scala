package repro.bench

import repro.graphgen.Datasets

/** Figure 4: adoption utility and selection time vs budget k for the four
  * compared methods (ℓ=3, β/α=0.5, ε=0.5).
  */
class BenchVaryK extends BenchBase {

  Datasets.all.foreach { spec =>
    test(s"Figure 4 — vary k on ${spec.name}") {
      val fig = figures(spec).fig4
      report(s"Figure 4 — vary k (${spec.name})", fig.table)
      fig.values.foreach { k =>
        // Shape: BAB beats both IM-style baselines; BAB-P stays close to BAB.
        assert(fig.at(k, "BAB").utility >= fig.at(k, "IM").utility - 1e-9, s"k=$k")
        assert(fig.at(k, "BAB").utility >= fig.at(k, "TIM").utility * 0.999, s"k=$k")
        assert(fig.at(k, "BAB-P").utility >= 0.65 * fig.at(k, "BAB").utility, s"k=$k")
      }
    }
  }

  test("utility is non-decreasing in k for BAB") {
    Datasets.all.foreach { spec =>
      val fig = figures(spec).fig4
      val utils = fig.values.map(fig.at(_, "BAB").utility)
      utils.sliding(2).foreach { case Seq(a, b) =>
        assert(b >= a * 0.999, s"${spec.name}: $utils")
      }
    }
  }
}
