package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graphgen.{GraphSpec, SocialGraphGen}
import repro.influence.{MrrSampler, Piece, ReverseCsr}
import repro.util.HashRng

/** Shared harness behind every evaluation table/figure (§VI).
  *
  * `prepare` builds the dataset once — graph, campaign pieces, MRR samples,
  * coverage indices — and [[Figures]] sweeps k / ℓ / β/α / ε over it.
  * Pieces are one-hot topic vectors over hash-shuffled distinct topics
  * ("uniformly sampling a non-zero topic dimension", §VI-A). As in the paper,
  * method timings exclude the shared sampling time, which is reported
  * separately (Table III's "Sample Time").
  */
object ExperimentRunner {

  private val TagPieceTopic = 401L

  /** One prepared dataset: everything the methods consume.
    *
    * @param idx        campaign MRR coverage index (ℓ pieces)
    * @param mixtureIdx single-piece RR index on the uniform topic mixture
    *                   (IM baseline's topic-agnostic view)
    * @param sampleTimeMs Table III's sample time: the CSR build, the campaign
    *                   sampling and its index build (not the mixture)
    */
  final case class Prepared(
      spec: GraphSpec,
      edges: DataFrame,
      pieces: Seq[Piece],
      promoters: Array[Long],
      idx: CoverageIndex,
      mixtureIdx: CoverageIndex,
      realizedEdges: Long,
      sampleTimeMs: Long)

  /** One method's outcome on one configuration; `timeNs` is its selection
    * time in nanoseconds.
    */
  final case class MethodResult(
      name: String,
      utility: Double,
      timeNs: Long,
      tauEvals: Long = 0L,
      boundCalls: Int = 0,
      gap: Double = 0.0)

  /** The campaign's one-hot pieces: first `ell` topics of a hash-shuffled
    * distinct topic order (ℓ ≤ |Z| in all experiments).
    */
  def pieceVectors(ell: Int, numTopics: Int, seed: Long): Seq[Piece] = {
    require(ell >= 1 && ell <= numTopics, s"need 1 ≤ ℓ ≤ |Z|: ℓ=$ell, |Z|=$numTopics")
    val shuffled = (0 until numTopics)
      .sortBy(z => HashRng.uniform(seed, TagPieceTopic, z.toLong))
    shuffled.take(ell).map(Piece.oneHot(_, numTopics))
  }

  /** Build graph, pieces and MRR indices for one (dataset, ℓ, θ) tuple. */
  def prepare(
      spark: SparkSession,
      spec: GraphSpec,
      ell: Int,
      theta: Int,
      promoterFraction: Double = 0.1,
      seed: Long = 17L): Prepared = {
    val pieces = pieceVectors(ell, spec.numTopics, seed)
    val edges = SocialGraphGen.generate(spark, spec).persist()
    val realizedEdges = edges.count()
    val promoters = SocialGraphGen.promoters(spec, promoterFraction)

    val (idx, mixtureIdx, sampleTimeMs) =
      sampleIndices(spark, edges, spec.nVertices, pieces, theta, promoters, seed)
    Prepared(spec, edges, pieces, promoters, idx, mixtureIdx, realizedEdges, sampleTimeMs)
  }

  /** Both MRR coverage indices of one campaign, sampled on one broadcast
    * [[ReverseCsr]] with a row per campaign piece plus the uniform mixture:
    * the campaign at `seed`, the mixture at `seed + 1` as piece 0 of a
    * one-piece campaign (the same samples `sampleBroadcast` draws for
    * `Seq(mixture)`). The broadcast is destroyed before returning.
    *
    * @return the campaign index, the mixture index, and the milliseconds
    *         spent on the CSR build, the campaign sampling and its index
    */
  def sampleIndices(
      spark: SparkSession,
      edges: DataFrame,
      nVertices: Long,
      pieces: Seq[Piece],
      theta: Int,
      promoters: Array[Long],
      seed: Long): (CoverageIndex, CoverageIndex, Long) = {
    val ell = pieces.length
    val pool = promoters.distinct.sorted
    val mixture = Piece.uniformMixture(pieces.head.numTopics)
    val t0 = System.nanoTime()
    val csr = spark.sparkContext.broadcast(ReverseCsr.collect(edges, nVertices, pieces :+ mixture))
    try {
      val idx = CoverageIndex.merge(
        MrrSampler.sampleFragments(spark, csr, 0 until ell, MrrSampler.MrrConfig(theta, seed = seed), pool),
        theta, ell, nVertices, pool)
      val sampleTimeMs = (System.nanoTime() - t0) / 1000000L
      val mixtureIdx = CoverageIndex.merge(
        MrrSampler.sampleFragments(spark, csr, Seq(ell), MrrSampler.MrrConfig(theta, seed = seed + 1), pool),
        theta, 1, nVertices, pool)
      (idx, mixtureIdx, sampleTimeMs)
    } finally csr.destroy()
  }

  /** Restrict a prepared dataset to its first `ell` pieces (pieces are
    * independent and `pieceVectors` is prefix-stable, so the restriction is
    * exact — no resampling needed for the ℓ-sweep).
    */
  def restrict(prep: Prepared, ell: Int): Prepared =
    prep.copy(pieces = prep.pieces.take(ell), idx = prep.idx.takePieces(ell))

  /** Run the four compared methods on one configuration. BAB and BAB-P stop
    * at the paper's 1 % bound gap (§VI-A) or after 2000 ComputeBound calls,
    * whichever comes first; the achieved gap is reported.
    */
  def runAll(
      prep: Prepared,
      k: Int,
      params: LogisticParams,
      eps: Double = 0.5,
      methods: Set[String] = Set("IM", "TIM", "BAB", "BAB-P")): Seq[MethodResult] = {
    val out = Seq.newBuilder[MethodResult]
    if (methods("IM")) {
      val r = Baselines.runIM(prep.mixtureIdx, prep.idx, params, k)
      out += MethodResult("IM", r.sigma, r.elapsedNs)
    }
    if (methods("TIM")) {
      val r = Baselines.runTIM(prep.idx, params, k)
      out += MethodResult("TIM", r.sigma, r.elapsedNs)
    }
    val cfg = BabConfig(k, gapTol = 0.01, maxBoundCalls = 2000)
    if (methods("BAB")) {
      val r = BranchAndBound.runGreedy(prep.idx, params, cfg)
      out += MethodResult("BAB", r.sigma, r.elapsedNs, r.tauEvals, r.boundCalls, r.gap)
    }
    if (methods("BAB-P")) {
      val r = BranchAndBound.runProgressive(prep.idx, params, cfg, eps)
      out += MethodResult("BAB-P", r.sigma, r.elapsedNs, r.tauEvals, r.boundCalls, r.gap)
    }
    out.result()
  }

  /** Render result rows as a GitHub-markdown table. */
  def markdownTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(header.mkString("| ", " | ", " |")).append('\n')
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |")).append('\n')
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |")).append('\n'))
    sb.toString
  }

  def fmt(d: Double): String = f"$d%.3f"
}
