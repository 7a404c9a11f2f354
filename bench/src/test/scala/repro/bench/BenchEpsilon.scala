package repro.bench

import repro.graphgen.Datasets

/** Figure 3: BAB-P adoption utility (and time) vs the progressive-threshold
  * parameter ε (k=50, ℓ=3, β/α=0.5). The paper observes a mild descending
  * utility trend as ε rises (0.08 %–6.6 % drop from ε=0.1 to 0.9).
  */
class BenchEpsilon extends BenchBase {

  Datasets.all.foreach { spec =>
    test(s"Figure 3 — vary epsilon on ${spec.name}") {
      val fig = figures(spec).fig3
      report(s"Figure 3 — vary epsilon (${spec.name})", fig.table)
      // Shape: the smallest epsilon is never materially worse than the largest.
      val u01 = fig.at(0.1, "BAB-P").utility
      val u09 = fig.at(0.9, "BAB-P").utility
      assert(u01 >= u09 * 0.93, s"${spec.name}: eps=0.1 gave $u01 vs eps=0.9 $u09")
    }
  }
}
