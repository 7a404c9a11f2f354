package repro.bench

import repro.graphgen.Datasets

/** Figure 6: adoption utility vs the adoption-difficulty ratio β/α
  * (k=50, ℓ=3, ε=0.5). The MRR samples are independent of (α, β), so one
  * sampling pass serves the whole sweep.
  */
class BenchVaryBetaAlpha extends BenchBase {

  Datasets.all.foreach { spec =>
    test(s"Figure 6 — vary beta/alpha on ${spec.name}") {
      val fig = figures(spec).fig6
      report(s"Figure 6 — vary beta/alpha (${spec.name})", fig.table)
      fig.values.foreach { ratio =>
        assert(fig.at(ratio, "BAB").utility >= fig.at(ratio, "TIM").utility * 0.999, s"ratio=$ratio")
        assert(fig.at(ratio, "BAB").utility >= fig.at(ratio, "IM").utility - 1e-9, s"ratio=$ratio")
      }
    }
  }

  test("utility rises with beta/alpha and BAB's edge is larger when adoption is harder") {
    Datasets.all.foreach { spec =>
      val fig = figures(spec).fig6
      def at(ratio: Double): Map[String, Double] =
        Seq("TIM", "BAB").map(m => m -> fig.at(ratio, m).utility).toMap
      val hard = at(0.3)
      val easy = at(0.7)
      assert(easy("BAB") > hard("BAB"), s"${spec.name}: easier adoption must raise utility")
      // Paper §VI-E: the improvement ratio over TIM grows as beta/alpha shrinks.
      val hardEdge = hard("BAB") / math.max(hard("TIM"), 1e-9)
      val easyEdge = easy("BAB") / math.max(easy("TIM"), 1e-9)
      assert(hardEdge >= easyEdge * 0.95,
        s"${spec.name}: hardEdge=$hardEdge easyEdge=$easyEdge")
    }
  }
}
