package repro.bench

import repro.exp.Figures
import repro.graphgen.{Datasets, GraphSpec}

/** Table III: dataset statistics and MRR sample time. */
class BenchDatasetStats extends BenchBase {

  test("Table III: dataset statistics") {
    val preps = Datasets.all.map(figures(_).prep)
    preps.foreach { prep =>
      val spec = prep.spec
      assert(prep.realizedEdges > 0.8 * spec.targetEdges,
        s"${spec.name}: only ${prep.realizedEdges} of ${spec.targetEdges} edges realized")
      assert(prep.promoters.length > 0.05 * spec.nVertices)
    }
    report("Table III — dataset statistics", Figures.datasetStats(preps))
  }

  test("average degrees track the paper's ratios") {
    def avgDeg(spec: GraphSpec): Double =
      figures(spec).prep.realizedEdges.toDouble / spec.nVertices
    // Paper: lastfm 8.7–11.5, dblp ~12, tweet ~1.2.
    assert(avgDeg(Datasets.lastfmLike) > 8 && avgDeg(Datasets.lastfmLike) < 13)
    assert(avgDeg(Datasets.dblpLike) > 9 && avgDeg(Datasets.dblpLike) < 13)
    assert(avgDeg(Datasets.tweetLike) > 0.9 && avgDeg(Datasets.tweetLike) < 1.3)
  }
}
