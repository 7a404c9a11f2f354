package repro.exp

import repro.SparkSpec
import repro.core.{CoverageIndex, LogisticParams}
import repro.graphgen.Datasets
import repro.influence.{MrrSampler, Piece, TopicGraph}
import repro.influence.MrrSampler.MrrConfig
import repro.testkit.{ExampleGraphs, IndexContent}

class ExperimentRunnerSpec extends SparkSpec {

  private lazy val prep =
    ExperimentRunner.prepare(spark, Datasets.mini, ell = 3, theta = 1500)
  private val params = LogisticParams.fromRatio(0.5)

  test("pieceVectors produces distinct one-hot pieces") {
    val pieces = ExperimentRunner.pieceVectors(4, 10, seed = 3L)
    assert(pieces.length == 4)
    pieces.foreach(p => assert(p.weights.count(_ == 1.0) == 1 && p.weights.sum == 1.0))
    val topics = pieces.map(_.weights.indexOf(1.0))
    assert(topics.distinct.length == 4)
  }

  test("pieceVectors is deterministic and rejects ell > topics") {
    assert(ExperimentRunner.pieceVectors(3, 10, 5L).map(_.weights.toSeq) ==
      ExperimentRunner.pieceVectors(3, 10, 5L).map(_.weights.toSeq))
    intercept[IllegalArgumentException](ExperimentRunner.pieceVectors(11, 10, 5L))
    intercept[IllegalArgumentException](ExperimentRunner.pieceVectors(0, 10, 5L))
    intercept[IllegalArgumentException](ExperimentRunner.prepare(spark, Datasets.mini, ell = 0, theta = 10))
  }

  test("piece sweeps share a prefix: same seed gives nested campaigns") {
    val p3 = ExperimentRunner.pieceVectors(3, 10, 7L).map(_.weights.toSeq)
    val p5 = ExperimentRunner.pieceVectors(5, 10, 7L).map(_.weights.toSeq)
    assert(p5.take(3) == p3)
  }

  test("prepare wires up consistent indices") {
    assert(prep.idx.ell == 3)
    assert(prep.mixtureIdx.ell == 1)
    assert(prep.idx.theta == 1500)
    assert(prep.idx.promoters.toSeq == prep.mixtureIdx.promoters.toSeq)
    assert(prep.realizedEdges > 0)
    assert(prep.sampleTimeMs >= 0)
  }

  /** The reference the production indices must equal: `sampleBroadcast`
    * rows built into an index, the mixture sampled as its own one-piece
    * campaign at `seed + 1`.
    */
  private def reference(edges: org.apache.spark.sql.DataFrame, n: Long, pieces: Seq[Piece], theta: Int,
      promoters: Array[Long], seed: Long): (CoverageIndex, CoverageIndex) = {
    val mixture = Seq(Piece.uniformMixture(pieces.head.numTopics))
    (CoverageIndex.build(MrrSampler.sampleBroadcast(spark, edges, n, pieces, MrrConfig(theta, seed = seed)),
      theta, pieces.length, n, promoters),
      CoverageIndex.build(MrrSampler.sampleBroadcast(spark, edges, n, mixture, MrrConfig(theta, seed = seed + 1)),
        theta, 1, n, promoters))
  }

  test("prepare's indices equal the broadcast sampler's on mini, prefix by prefix") {
    val (idx, mix) = reference(prep.edges, Datasets.mini.nVertices, prep.pieces, 1500, prep.promoters, 17L)
    assert(IndexContent(prep.idx) == IndexContent(idx))
    assert(IndexContent(prep.mixtureIdx) == IndexContent(mix))
    (1 to 3).foreach { l =>
      val (sub, _) = reference(prep.edges, Datasets.mini.nVertices, prep.pieces.take(l), 1500, prep.promoters, 17L)
      assert(IndexContent(prep.idx.takePieces(l)) == IndexContent(sub), s"ell=$l")
    }
  }

  test("sampleIndices equals the broadcast sampler's indices on Example 1") {
    val edges = TopicGraph.fromEdges(spark, ExampleGraphs.edges)
    val promoters = Array(4L, 0L, 2L, 0L) // unsorted, repeated: the pool is normalised
    val (idx, mix, ms) = ExperimentRunner.sampleIndices(spark, edges, 5, ExampleGraphs.pieces, 400, promoters, 31L)
    val (refIdx, refMix) = reference(edges, 5, ExampleGraphs.pieces, 400, promoters, 31L)
    assert(IndexContent(idx) == IndexContent(refIdx))
    assert(IndexContent(mix) == IndexContent(refMix))
    assert(idx.promoters.toSeq == Seq(0L, 2L, 4L) && ms >= 0)
  }

  test("the mixture's coins use piece 0 at seed + 1, not its CSR row") {
    // Sampling the mixture as the (ℓ+1)-th piece of one campaign coins it with
    // piece index ℓ: a different sample set, so this pin is not vacuous.
    val n = Datasets.mini.nVertices
    val mixture = Piece.uniformMixture(Datasets.mini.numTopics)
    val asRow = CoverageIndex.build(MrrSampler.sampleBroadcast(spark, prep.edges, n, prep.pieces :+ mixture,
      MrrConfig(1500, seed = 18L)), 1500, 4, n, prep.promoters)
    val rowView = (0 until asRow.promoters.length).map(p => asRow.coverage(p * 4 + 3).toSeq)
    val pinned = (0 until prep.mixtureIdx.candidateCount).map(c => prep.mixtureIdx.coverage(c).toSeq)
    assert(rowView != pinned)
  }

  test("runAll produces all four methods with positive utilities") {
    val rs = ExperimentRunner.runAll(prep, k = 5, params)
    assert(rs.map(_.name) == Seq("IM", "TIM", "BAB", "BAB-P"))
    rs.foreach(r => assert(r.utility > 0, s"${r.name} utility=${r.utility}"))
    rs.foreach(r => assert(r.timeNs > 0))
  }

  test("BAB dominates the baselines; BAB-P stays close to BAB") {
    val rs = ExperimentRunner.runAll(prep, k = 8, params).map(r => r.name -> r).toMap
    assert(rs("BAB").utility >= rs("TIM").utility - 1e-9)
    assert(rs("BAB").utility >= rs("IM").utility - 1e-9)
    assert(rs("BAB-P").utility >= 0.7 * rs("BAB").utility,
      s"BAB-P=${rs("BAB-P").utility} BAB=${rs("BAB").utility}")
  }

  test("utility grows with the budget") {
    val small = ExperimentRunner.runAll(prep, k = 2, params, methods = Set("BAB"))
    val big = ExperimentRunner.runAll(prep, k = 10, params, methods = Set("BAB"))
    assert(big.head.utility >= small.head.utility - 1e-9)
  }

  test("utility grows with beta/alpha (easier adoption)") {
    val hard = ExperimentRunner.runAll(prep, k = 5, LogisticParams.fromRatio(0.3), methods = Set("BAB"))
    val easy = ExperimentRunner.runAll(prep, k = 5, LogisticParams.fromRatio(0.7), methods = Set("BAB"))
    assert(easy.head.utility > hard.head.utility)
  }

  test("method filter is honoured") {
    val rs = ExperimentRunner.runAll(prep, k = 3, params, methods = Set("TIM", "BAB-P"))
    assert(rs.map(_.name) == Seq("TIM", "BAB-P"))
  }

  test("restrict projects the prepared dataset to an ell prefix") {
    val r = ExperimentRunner.restrict(prep, 2)
    assert(r.pieces.length == 2 && r.idx.ell == 2)
    assert(r.pieces.map(_.weights.toSeq) == prep.pieces.take(2).map(_.weights.toSeq))
    // A plan over the prefix scores identically on both indices.
    val v = prep.promoters.head
    val plan2 = repro.core.Plan.fromAssignments(2, Seq((v, 0), (v, 1)))
    val plan3 = repro.core.Plan.fromAssignments(3, Seq((v, 0), (v, 1)))
    assert(math.abs(r.idx.auOfPlan(plan2, params) - prep.idx.auOfPlan(plan3, params)) < 1e-12)
  }

  test("markdownTable renders GitHub tables") {
    val t = ExperimentRunner.markdownTable(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    assert(t ==
      "| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n")
  }

  test("fmt renders three decimals") {
    assert(ExperimentRunner.fmt(1.23456) == "1.235")
  }
}
