package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.ExperimentRunner
import repro.exp.ExperimentRunner.{MethodResult, Prepared}
import repro.jobs.JobCommon
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** OIPA time-to-plan benchmark.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * With `--trace 0` it times the production pipeline — `prepare`, then one
  * single-method `runAll` per method — for at least `--seconds` seconds and
  * reports the end-to-end metrics. With `--trace 1` it makes a traced pass,
  * which calls each layer's public functions in `prepare`'s order, between
  * two untraced passes, and reports per-layer metrics. Either way it checks
  * every plan and the pinned outputs, and prints one JSON result object as
  * the last line of standard output.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  val Methods: Seq[String] = Seq("IM", "TIM", "BAB", "BAB-P")

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 2

  /** `runAll` calls per method and pass; a method's time is their median.
    * The first call of a big search runs partly unoptimised by the JIT.
    */
  val MethodReps = 3

  def parseArgs(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (argv.length % 2 != 0 || kv.size * 2 != argv.length || kv.keySet != Set("workload", "seed", "seconds", "trace"))
      return Left("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    for {
      w <- Workloads.byName(kv("workload")).toRight(
        s"unknown workload '${kv("workload")}'; known: ${Workloads.all.map(_.name).mkString(", ")}")
      seed <- kv("seed").toLongOption.toRight(s"--seed must be an integer, got '${kv("seed")}'")
      secs <- kv("seconds").toIntOption.filter(_ > 0).toRight(s"--seconds must be a positive integer, got '${kv("seconds")}'")
      trace <- kv("trace") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"--trace must be 0 or 1, got '$t'")
      }
    } yield Args(w, seed, secs, trace)
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv) match {
      case Right(a) => a
      case Left(msg) => Console.err.println(msg); sys.exit(2)
    }
    val outDir = Paths.get(sys.props.getOrElse("perfbench.out", ".bench_build/perfbench"))
    Files.createDirectories(outDir)
    val ops = new Ops
    val record = mutable.LinkedHashMap.empty[String, String]

    // Set-up: session start plus a warm-up over every layer, several times.
    var spark: SparkSession = null
    val setupS = (1 to SetupReps).map { rep =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = JobCommon.session("perfbench")
      val t1 = System.nanoTime()
      warmUp(spark, ops)
      log(f"set-up $rep: session ${(t1 - t0) / 1e9}%.2f s, warm-up ${secondsSince(t1)}%.2f s")
      secondsSince(t0)
    }
    val counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)

    val w = args.workload
    val in = w.inputs(args.seed)
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]

    try {
      if (!args.trace) {
        val passes = mutable.ArrayBuffer.empty[Pass]
        while (passes.isEmpty || passes.map(_.planS).sum < args.seconds) {
          val (prep, pass) = untracedPass(spark, w, in, ops)
          log(f"pass ${passes.length + 1}: prepare ${pass.prepareS}%.2f s, " +
            Methods.map(m => f"$m ${pass.methodS(m)}%.3f s").mkString(", "))
          if (passes.isEmpty) {
            val t0 = System.nanoTime()
            checkProduction(ops, w, in, prep, pass)
            log(f"checks ${secondsSince(t0)}%.2f s")
          }
          prep.edges.unpersist(blocking = true)
          passes += pass
        }
        def med(f: Pass => Double) = Stats.median(passes.map(f).toSeq)
        metrics ++= Seq(
          "setup_s" -> (Stats.median(setupS), "s"),
          "prepare_s" -> (med(_.prepareS), "s"),
          "plan_s" -> (med(_.planS), "s"),
          "bab_plan_s" -> (med(p => p.prepareS + p.methodS("BAB")), "s"),
          "babp_plan_s" -> (med(p => p.prepareS + p.methodS("BAB-P")), "s"),
          "sigma_im" -> (passes.head.results("IM").utility, "users"),
          "sigma_tim" -> (passes.head.results("TIM").utility, "users"),
          "sigma_bab" -> (passes.head.results("BAB").utility, "users"),
          "sigma_babp" -> (passes.head.results("BAB-P").utility, "users"),
          "heap_retained_mb" -> (med(_.heapMb), "MB"),
        )
        record ++= Seq(
          "setup_s" -> summaryJson(setupS),
          "prepare_s" -> summaryJson(passes.map(_.prepareS).toSeq),
          "plan_s" -> summaryJson(passes.map(_.planS).toSeq),
          "bab_plan_s" -> summaryJson(passes.map(p => p.prepareS + p.methodS("BAB")).toSeq),
          "babp_plan_s" -> summaryJson(passes.map(p => p.prepareS + p.methodS("BAB-P")).toSeq),
          "heap_retained_mb" -> summaryJson(passes.map(_.heapMb).toSeq),
          "method_s" -> Json.obj(Methods.map(m => m -> summaryJson(passes.flatMap(_.methodReps(m)).toSeq))),
          "search" -> Json.obj(Methods.map { m =>
            val r = passes.head.results(m)
            m -> Json.obj(Seq("bound_calls" -> Json.num(r.boundCalls.toLong),
              "tau_evals" -> Json.num(r.tauEvals), "gap" -> Json.num(r.gap)))
          }),
        )
      } else {
        // Untraced passes on both sides of the traced one, so that JIT warm-up
        // does not pass for tracing overhead.
        def untraced(): Pass = {
          val (prep, pass) = untracedPass(spark, w, in, ops)
          prep.edges.unpersist(blocking = true)
          pass
        }
        val before = untraced()
        val traced = TracedRun.run(spark, counters, w, in, ops)
        val after = untraced()
        val untracedPlanS = Stats.median(Seq(before.planS, after.planS))
        Checks.shape(ops, traced.sigma)
        for (m <- Methods)
          ops.check(s"$m: traced sigma ${traced.sigma(m)} equals runAll's ${before.results(m).utility}")(
            Checks.relClose(traced.sigma(m), before.results(m).utility, 1e-9))
        Checks.pinned(ops, w.name, in, traced.edgeDigest, traced.realizedEdges, traced.idxDigest,
          traced.mixtureDigest, traced.sigma)
        metrics ++= traced.metrics
        metrics += "trace.overhead_s" -> (traced.planS - untracedPlanS, "s")
        record += "untraced_plan_s" -> summaryJson(Seq(before.planS, after.planS))
        record += "bound_calls" -> traced.boundSummaries
        val self = Trace.selfNs(traced.spans)
        val spanFile = outDir.resolve(s"spans-${w.name}-seed${args.seed}.jsonl")
        Files.write(spanFile, Trace.toJsonLines(traced.spans, self).asJava, UTF_8)
        record += "spans_file" -> Json.str(spanFile.toString)
      }
    } finally {
      writeRecord(outDir, args, in, spark, ops, record)
      spark.stop()
    }

    println(Json.obj(Seq(
      "correct" -> Json.bool(ops.failed == 0),
      "attempted" -> Json.num(ops.total.toLong),
      "failed" -> Json.num(ops.failed.toLong),
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))))
  }

  /** One untraced pass: wall time of `prepare`, the heap it leaves behind,
    * and the wall times of each method's single-method `runAll` repetitions.
    */
  final case class Pass(prepareS: Double, methodReps: Map[String, Seq[Double]], heapMb: Double,
      results: Map[String, MethodResult]) {
    def methodS(m: String): Double = Stats.median(methodReps(m))
    def planS: Double = prepareS + Methods.map(methodS).sum
  }

  def untracedPass(spark: SparkSession, w: Workload, in: Inputs, ops: Ops,
      methodReps: Int = MethodReps): (Prepared, Pass) = {
    val t0 = System.nanoTime()
    val prep = ExperimentRunner.prepare(spark, in.spec, w.ell, w.theta, seed = in.prepareSeed)
    val prepareS = secondsSince(t0)
    val heapMb = Jvm.retainedHeapMb()
    val runs = Methods.map { m =>
      val reps = (1 to methodReps).map { _ =>
        val t = System.nanoTime()
        val r = ExperimentRunner.runAll(prep, w.k, w.params, methods = Set(m))
        val s = secondsSince(t)
        ops.ran()
        require(r.length == 1 && r.head.name == m, s"runAll(methods = Set($m)) returned ${r.map(_.name)}")
        (r.head, s)
      }
      ops.check(s"$m: every repetition reports the same sigma")(reps.forall(_._1.utility == reps.head._1.utility))
      (m, reps.head._1, reps.map(_._2))
    }
    (prep, Pass(prepareS, runs.map(r => r._1 -> r._3).toMap, heapMb, runs.map(r => r._1 -> r._2).toMap))
  }

  /** Re-derive each method's plan through its public entry point, check it
    * against what `runAll` reported, and check the pinned digests.
    */
  def checkProduction(ops: Ops, w: Workload, in: Inputs, prep: Prepared, pass: Pass): Unit = {
    val p = w.params
    val cfg = BabConfig(w.k, Workloads.GapTol, Workloads.MaxBoundCalls)
    val reported = pass.results.map { case (m, r) => m -> r.utility }
    Checks.plan(ops, "IM", prep.idx, Baselines.runIM(prep.mixtureIdx, prep.idx, p, w.k).plan, reported("IM"), w.k, p)
    Checks.plan(ops, "TIM", prep.idx, Baselines.runTIM(prep.idx, p, w.k).plan, reported("TIM"), w.k, p)
    // BAB's plan is re-derived with the CELF form of the same greedy bounder:
    // it selects the same sets as the plain scan (the program's tests pin
    // this), so the search takes the same path at a fraction of the cost.
    val celf = new GreedyBounder(prep.idx, new EnvelopeTable(p, prep.idx.ell),
      BranchAndBound.defaultOrder(prep.idx), p, useCelf = true)
    Checks.plan(ops, "BAB", prep.idx, BranchAndBound.run(prep.idx, p, celf, cfg).plan, reported("BAB"), w.k, p)
    Checks.plan(ops, "BAB-P", prep.idx, BranchAndBound.runProgressive(prep.idx, p, cfg, Workloads.Eps).plan,
      reported("BAB-P"), w.k, p)
    Checks.shape(ops, reported)
    Checks.pinned(ops, w.name, in, Digest.edges(prep.edges), prep.realizedEdges, Digest.index(prep.idx),
      Digest.index(prep.mixtureIdx), reported)
  }

  /** Every layer once on the mini profile, including a branching search, so
    * that timed passes measure the program rather than the JIT.
    */
  def warmUp(spark: SparkSession, ops: Ops): Unit = {
    val w = Workloads.warmUp
    val in = w.inputs(Workloads.DefaultPrepareSeed)
    val (prep, pass) = untracedPass(spark, w, in, ops, methodReps = 1)
    log(f"warm-up pass: prepare ${pass.prepareS}%.2f s, methods ${pass.planS - pass.prepareS}%.2f s")
    checkProduction(ops, w, in, prep, pass)
    prep.edges.unpersist(blocking = true)
  }

  def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def summaryJson(xs: Seq[Double]): String = {
    val s = Stats.summarize(xs)
    Json.obj(Seq("n" -> Json.num(s.n.toLong), "median" -> Json.num(s.median)) ++
      s.tailPct.toSeq.flatMap(p => Seq("tail_pct" -> Json.num(p), "tail" -> Json.num(s.tail.get))) ++
      Seq("values" -> Json.arr(xs.map(Json.num))))
  }

  private def writeRecord(outDir: Path, args: Args, in: Inputs, spark: SparkSession, ops: Ops,
      extra: mutable.LinkedHashMap[String, String]): Unit = {
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    val rec = Json.obj(Seq(
      "workload" -> Json.str(args.workload.name),
      "seed" -> Json.num(args.seed),
      "graph_seed" -> Json.num(in.spec.seed),
      "prepare_seed" -> Json.num(in.prepareSeed),
      "trace" -> Json.bool(args.trace),
      "seconds" -> Json.num(args.seconds.toLong),
      "nproc" -> Json.num(Runtime.getRuntime.availableProcessors.toLong),
      "spark_master" -> Json.str(spark.sparkContext.master),
      "spark_version" -> Json.str(spark.version),
      "driver_xmx" -> Json.str(jvmArgs.filter(_.startsWith("-Xmx")).lastOption.getOrElse("default")),
      "max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / Jvm.MB),
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "git_commit" -> Json.str(sys.props.getOrElse("perfbench.commit", "unknown")),
      "source_sha256" -> Json.str(sys.props.getOrElse("perfbench.source", "unknown")),
      "ops_total" -> Json.num(ops.total.toLong),
      "ops_failed" -> Json.num(ops.failed.toLong),
      "failures" -> Json.arr(ops.failures.toSeq.map(Json.str)),
    ) ++ extra.toSeq)
    val file = outDir.resolve(s"record-${args.workload.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
    Files.write(file, (rec + "\n").getBytes(UTF_8))
    println(s"record: $rec")
  }
}
