package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed interval of the traced run.
  *
  * @param parent   id of the enclosing span, or -1 for a root
  * @param counters counter deltas over the span (Spark jobs, tasks, bytes, GC)
  */
final case class Span(
    id: Int,
    name: String,
    parent: Int,
    startNs: Long,
    endNs: Long,
    counters: Map[String, Double] = Map.empty) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans nest by dynamic scope; `probe` is read at
  * each boundary of a `span` and its deltas are attached to the span.
  */
final class Tracer(probe: () => Map[String, Double]) {

  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    val c0 = probe()
    val t0 = System.nanoTime()
    open = id :: open
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      val c1 = probe()
      done += Span(id, name, parent, t0, t1, c1.map { case (k, v) => k -> (v - c0.getOrElse(k, 0.0)) })
    }
  }

  /** Add an interval timed elsewhere as a child of the innermost open span,
    * without counters (used for the thousands of bound calls).
    */
  def record(name: String, startNs: Long, endNs: Long): Unit = {
    done += Span(nextId, name, open.headOption.getOrElse(-1), startNs, endNs)
    nextId += 1
  }
}

object Trace {

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children (overlapping children count once, time outside
    * the parent's interval not at all).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val ivs = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      for ((a, b) <- ivs) {
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durationNs - covered)
    }.toMap
  }

  /** Total duration (s) of all spans with this name. */
  def seconds(spans: Seq[Span], name: String): Double =
    spans.iterator.filter(_.name == name).map(_.durationNs).sum / 1e9

  /** Sum of one counter over all spans with this name. */
  def counter(spans: Seq[Span], name: String, key: String): Double =
    spans.iterator.filter(_.name == name).map(_.counters.getOrElse(key, 0.0)).sum

  /** Spans as JSON lines. */
  def toJsonLines(spans: Seq[Span], self: Map[Int, Long]): Seq[String] =
    spans.map { s =>
      Json.obj(Seq(
        "id" -> Json.num(s.id), "name" -> Json.str(s.name), "parent" -> Json.num(s.parent),
        "start_ns" -> Json.num(s.startNs), "end_ns" -> Json.num(s.endNs),
        "self_ns" -> Json.num(self(s.id)),
        "counters" -> Json.obj(s.counters.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) })))
    }
}

/** Spark task and job counters, fed by the listener bus. */
final class SparkCounters extends SparkListener {
  private val jobs = new AtomicLong
  private val tasks = new AtomicLong
  private val shuffleWrite = new AtomicLong
  private val result = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      result.addAndGet(m.resultSize)
    }
  }

  /** Counter snapshot after every event posted so far has been delivered,
    * plus the JVM's cumulative GC time.
    */
  def snapshot(sc: SparkContext): Map[String, Double] = {
    ListenerBusDrain(sc)
    Map(
      "spark_jobs" -> jobs.get.toDouble,
      "spark_tasks" -> tasks.get.toDouble,
      "shuffle_mb" -> shuffleWrite.get / Jvm.MB,
      "result_mb" -> result.get / Jvm.MB,
      "gc_s" -> Jvm.gcSeconds)
  }
}

/** JVM-wide measurements from the management beans. */
object Jvm {
  val MB: Double = 1024.0 * 1024.0

  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1000.0

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / MB

  /** Heap in use after full collections: what the program still holds. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / MB
  }
}
