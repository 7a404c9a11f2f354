package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.ExperimentRunner
import repro.graphgen.SocialGraphGen
import repro.influence.{MrrSampler, Piece, TopicGraph}

/** The traced pass: the same work as `prepare` plus the four methods, but
  * with each layer's public function called directly inside its own span.
  *
  * Traversal is split from index build by persisting and counting the
  * sampler's lazy output, and each bound call is timed by a [[TimedBounder]]
  * handed to the public `BranchAndBound.run`.
  */
object TracedRun {

  final case class Result(
      spans: Seq[Span],
      planS: Double,
      sigma: Map[String, Double],
      realizedEdges: Long,
      edgeDigest: Long,
      idxDigest: Long,
      mixtureDigest: Long,
      metrics: Seq[(String, (Double, String))],
      boundSummaries: String)

  def run(spark: SparkSession, counters: SparkCounters, w: Workload, in: Inputs, ops: Ops): Result = {
    val tracer = new Tracer(() => counters.snapshot(spark.sparkContext))
    val spec = in.spec
    val params = w.params
    val cfg = BabConfig(w.k, Workloads.GapTol, Workloads.MaxBoundCalls)
    Jvm.resetHeapPeak()
    val gc0 = Jvm.gcSeconds

    var realized = 0L
    var rrRows = 0L
    var pieces: Seq[Piece] = Nil

    /** One search, with every bound call recorded as a child span. */
    def search(name: String, bounder: Bounder): (BabResult, TimedBounder) = tracer.span(name) {
      val timed = new TimedBounder(bounder)
      val r = BranchAndBound.run(bounder.idx, params, timed, cfg)
      timed.calls.foreach { case (a, b) => tracer.record(s"$name.bound", a, b) }
      (r, timed)
    }

    val (edges, idx, mixIdx, im, tim, (bab, timedBab), (babp, timedBabp)) = tracer.span("plan") {
      val (edges, idx, mixIdx) = tracer.span("prepare") {
        val edges = tracer.span("graphgen") {
          val e = SocialGraphGen.generate(spark, spec).persist()
          realized = e.count()
          e
        }
        pieces = ExperimentRunner.pieceVectors(w.ell, spec.numTopics, in.prepareSeed)
        val promoters = SocialGraphGen.promoters(spec, Workloads.PromoterFraction)
        val mrr = tracer.span("influence.adjacency") {
          MrrSampler.sampleBroadcast(spark, edges, spec.nVertices, pieces,
            MrrSampler.MrrConfig(w.theta, seed = in.prepareSeed)).persist()
        }
        rrRows = tracer.span("influence.traverse")(mrr.count())
        val idx = tracer.span("index.build") {
          CoverageIndex.build(mrr, w.theta, w.ell, spec.nVertices, promoters)
        }
        mrr.unpersist(blocking = false)
        val mixIdx = tracer.span("influence.mixture") {
          val mix = MrrSampler.sampleBroadcast(spark, edges, spec.nVertices,
            Seq(Piece.uniformMixture(spec.numTopics)), MrrSampler.MrrConfig(w.theta, seed = in.prepareSeed + 1))
          CoverageIndex.build(mix, w.theta, 1, spec.nVertices, promoters)
        }
        (edges, idx, mixIdx)
      }
      val im = tracer.span("baselines.im")(Baselines.runIM(mixIdx, idx, params, w.k))
      val tim = tracer.span("baselines.tim")(Baselines.runTIM(idx, params, w.k))
      val order = BranchAndBound.defaultOrder(idx)
      val bab = search("bab", new GreedyBounder(idx, new EnvelopeTable(params, idx.ell), order, params))
      val babp = search("babp",
        new ProgressiveBounder(idx, new EnvelopeTable(params, idx.ell), order, params, Workloads.Eps))
      (edges, idx, mixIdx, im, tim, bab, babp)
    }
    val gcS = Jvm.gcSeconds - gc0
    val heapPeakMb = Jvm.heapPeakMb
    Main.Methods.foreach(_ => ops.ran())

    val spans = tracer.spans
    val self = Trace.selfNs(spans)
    def secs(name: String) = Trace.seconds(spans, name)
    def ctr(name: String, key: String) = Trace.counter(spans, name, key)
    def selfS(name: String) = spans.filter(_.name == name).map(s => self(s.id)).sum / 1e9
    val planS = secs("plan")

    // Checks on the traced plans.
    Checks.plan(ops, "IM", idx, im.plan, im.sigma, w.k, params)
    Checks.plan(ops, "TIM", idx, tim.plan, tim.sigma, w.k, params)
    Checks.plan(ops, "BAB", idx, bab.plan, bab.sigma, w.k, params)
    Checks.plan(ops, "BAB-P", idx, babp.plan, babp.sigma, w.k, params)
    for ((m, r, t) <- Seq(("BAB", bab, timedBab), ("BAB-P", babp, timedBabp)))
      ops.check(s"$m: timed bound calls ${t.calls.length} == boundCalls ${r.boundCalls}")(t.calls.length == r.boundCalls)

    // Sizes measured outside the spans.
    val projected = pieces.map(t => TopicGraph.influenceGraph(edges, t).count()).sum
    val entries = (0 until idx.candidateCount).map(c => idx.coverage(c).length.toLong).sum
    val auNs = Stats.median((1 to 21).map { _ =>
      val t0 = System.nanoTime(); idx.au(bab.candidates, params); (System.nanoTime() - t0).toDouble
    })
    val edgeDigest = Digest.edges(edges)
    edges.unpersist(blocking = true)

    def boundMetrics(prefix: String, t: TimedBounder, r: BabResult): Seq[(String, (Double, String))] = {
      val s = Stats.summarize(callNs(t))
      Seq(
        s"$prefix.bound.calls" -> (r.boundCalls.toDouble, "count"),
        s"$prefix.bound.tau_evals" -> (r.tauEvals.toDouble, "count"),
        s"$prefix.bound.s" -> (secs(s"$prefix.bound"), "s"),
        s"$prefix.bound.ns_p50" -> (s.median, "ns"),
        s"$prefix.bound.ns_tail" -> (s.tailOrMedian, "ns"),
        s"$prefix.bound.tail_pct" -> (s.tailPctOrMedian, "%"),
        s"$prefix.s" -> (secs(prefix), "s"),
        s"$prefix.search.self_s" -> (selfS(prefix), "s"),
        s"$prefix.cap_hit" -> (if (r.boundCalls >= cfg.maxBoundCalls) 1.0 else 0.0, "bool"),
        s"$prefix.gap" -> (r.gap, "ratio"),
        s"$prefix.plan_size" -> (r.candidates.length.toDouble / w.k, "ratio"),
      )
    }
    def boundJson(t: TimedBounder) = Main.summaryJson(callNs(t))

    val adjacencyS = secs("influence.adjacency")
    val metrics = Seq(
      "graphgen.s" -> (secs("graphgen"), "s"),
      "graphgen.edges" -> (realized.toDouble, "count"),
      "graphgen.spark_jobs" -> (ctr("graphgen", "spark_jobs"), "count"),
      "graphgen.shuffle_mb" -> (ctr("graphgen", "shuffle_mb"), "MB"),
      "graphgen.gc_s" -> (ctr("graphgen", "gc_s"), "s"),
      "influence.adjacency.s" -> (adjacencyS, "s"),
      "influence.adjacency.edges" -> (projected.toDouble, "count"),
      "influence.adjacency.spark_jobs" -> (ctr("influence.adjacency", "spark_jobs"), "count"),
      "influence.adjacency.result_mb" -> (ctr("influence.adjacency", "result_mb"), "MB"),
      "influence.adjacency.gc_s" -> (ctr("influence.adjacency", "gc_s"), "s"),
      "influence.traverse.s" -> (secs("influence.traverse"), "s"),
      "influence.rr_pairs" -> (w.theta.toDouble * w.ell, "count"),
      "influence.rr_rows" -> (rrRows.toDouble, "count"),
      "influence.rr_rows_per_pair" -> (rrRows.toDouble / (w.theta.toDouble * w.ell), "ratio"),
      "influence.mixture.s" -> (secs("influence.mixture"), "s"),
      "index.build.s" -> (secs("index.build"), "s"),
      "index.entries" -> (entries.toDouble, "count"),
      "index.candidates" -> (idx.candidateCount.toDouble, "count"),
      "index.kept_ratio" -> (entries.toDouble / math.max(rrRows, 1L), "ratio"),
      "index.result_mb" -> (ctr("index.build", "result_mb"), "MB"),
      "au.eval_ns" -> (auNs, "ns"),
    ) ++ boundMetrics("bab", timedBab, bab) ++ boundMetrics("babp", timedBabp, babp) ++ Seq(
      "baselines.im.s" -> (secs("baselines.im"), "s"),
      "baselines.tim.s" -> (secs("baselines.tim"), "s"),
      "jvm.gc_s" -> (gcS, "s"),
      "jvm.heap_peak_mb" -> (heapPeakMb, "MB"),
      "trace.plan_s" -> (planS, "s"),
      "trace.remainder_s" -> (selfS("plan") + selfS("prepare"), "s"),
      "share.influence.adjacency" -> (adjacencyS / planS, "ratio"),
      "share.traverse_index" -> ((secs("influence.traverse") + secs("index.build")) / planS, "ratio"),
      "share.bound" -> ((secs("bab.bound") + secs("babp.bound")) / planS, "ratio"),
    )

    Result(spans, planS,
      Map("IM" -> im.sigma, "TIM" -> tim.sigma, "BAB" -> bab.sigma, "BAB-P" -> babp.sigma),
      realized, edgeDigest, Digest.index(idx), Digest.index(mixIdx), metrics,
      Json.obj(Seq("bab" -> boundJson(timedBab), "babp" -> boundJson(timedBabp))))
  }

  /** Per-call bound times (ns); the search makes at least the root call. */
  private def callNs(t: TimedBounder): Seq[Double] = t.calls.map { case (a, b) => (b - a).toDouble }.toSeq
}
