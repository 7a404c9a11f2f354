package repro.exp

import repro.SparkSpec
import repro.core.LogisticParams
import repro.exp.Figures.Sweep
import repro.graphgen.Datasets

class FiguresSpec extends SparkSpec {

  private val theta = 1000
  private lazy val prep = Figures.prepare(spark, Datasets.mini, theta)
  private lazy val fig3 = Figures.varyEpsilon(prep)
  private lazy val fig4 = Figures.varyK(prep)
  private lazy val fig5 = Figures.varyL(prep)
  private lazy val fig6 = Figures.varyBetaAlpha(prep)
  private val four = Seq("IM", "TIM", "BAB", "BAB-P")

  private def grid[P](fig: Sweep[P]): Seq[(P, String)] = fig.points.map(p => (p.value, p.result.name))

  test("each figure's grid has one row per parameter value and method") {
    assert(prep.pieces.length == Figures.MaxEll)
    assert(grid(fig3) == Seq(0.1, 0.3, 0.5, 0.7, 0.9).map(_ -> "BAB-P"))
    assert(grid(fig4) == (for (k <- Seq(10, 20, 50, 100); m <- four) yield (k, m)))
    assert(grid(fig5) == (for (l <- 1 to 5; m <- four) yield (l, m)))
    assert(grid(fig6) == (for (r <- Seq(0.3, 0.5, 0.7); m <- four) yield (r, m)))
    Seq(fig3, fig4, fig5, fig6).foreach { fig =>
      assert(fig.dataset == "mini")
      assert(fig.table.linesIterator.length == 2 + fig.points.length, fig.param)
      fig.points.foreach(p => assert(p.result.utility > 0 && p.result.timeNs > 0, s"${fig.param} $p"))
    }
    assert(Figures.datasetStats(Seq(prep, prep)).linesIterator.length == 4)
  }

  test("every figure holds the other parameters at the Table IV defaults") {
    val babP = fig4.at(50, "BAB-P").utility
    assert(fig3.at(0.5, "BAB-P").utility == babP)
    four.foreach { m =>
      assert(fig5.at(3, m).utility == fig4.at(50, m).utility, m)
      assert(fig6.at(0.5, m).utility == fig4.at(50, m).utility, m)
    }
    intercept[NoSuchElementException](fig3.at(0.5, "BAB"))
  }

  test("Figure 5 restricts the one ℓ=5 sampling pass, as exact as resampling per ℓ") {
    val params = LogisticParams.fromRatio(Figures.Ratio)
    (1 until Figures.MaxEll).foreach { ell =>
      val restricted = ExperimentRunner.runAll(ExperimentRunner.restrict(prep, ell), Figures.K, params)
      val resampled = ExperimentRunner.runAll(
        ExperimentRunner.prepare(spark, Datasets.mini, ell, theta), Figures.K, params)
      assert(four.map(fig5.at(ell, _).utility) == restricted.map(_.utility), s"l=$ell")
      assert(resampled.map(_.utility) == restricted.map(_.utility), s"l=$ell")
    }
  }

  test("the speedup rows are Figure 4's k = 50 and 100 rows") {
    val rows = Figures.speedup(fig4)
    val fromFig4 = fig4.points.collect {
      case p if Set(50, 100)(p.value) && Set("BAB", "BAB-P")(p.result.name) => p.result
    }
    assert(rows.map(_.k) == Seq(50, 100))
    assert(rows.flatMap(s => Seq(s.bab, s.babp)) == fromFig4)
    assert(Figures.speedupTable(rows).linesIterator.length == 4)
  }

  test("method times render in milliseconds with three decimals") {
    assert(Figures.ms(1234567L) == "1.235")
    assert(Figures.ms(250000L) == "0.250")
  }
}
