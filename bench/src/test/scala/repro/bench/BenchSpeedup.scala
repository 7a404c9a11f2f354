package repro.bench

import repro.exp.Figures
import repro.graphgen.Datasets

/** Headline efficiency claim (§VI-C): the progressive upper-bound estimation
  * (BAB-P) is substantially faster than plain branch-and-bound (BAB) at equal
  * search budget, with near-equivalent utility — the paper reports up to
  * 24×/22×/8.1× on lastfm/dblp/tweet. The rows are Figure 4's k = 50 and 100.
  */
class BenchSpeedup extends BenchBase {

  test("BAB-P vs BAB speedup at k = 50 and 100") {
    val rows = Datasets.all.flatMap(figures(_).speedup)
    report("Speedup — BAB vs BAB-P", Figures.speedupTable(rows))
    rows.foreach { s =>
      // Shape: BAB-P must do far fewer tau evaluations without losing much quality.
      assert(s.evalRatio > 1.0, s"${s.dataset} k=${s.k}: evalRatio=${s.evalRatio}")
      assert(s.utilityRatio > 0.65, s"${s.dataset} k=${s.k}: quality=${s.utilityRatio}")
    }
  }
}
