package perfbench

import repro.core.{BoundResult, Bounder, CoverageIndex}
import scala.collection.mutable

/** A [[Bounder]] that times each `computeBound` call of the one it wraps and
  * changes nothing else: same order, same results, same τ-evaluation count.
  */
final class TimedBounder(inner: Bounder) extends Bounder {

  /** Start and end (ns) of every call, in call order. */
  val calls: mutable.ArrayBuffer[(Long, Long)] = mutable.ArrayBuffer.empty

  override def idx: CoverageIndex = inner.idx
  override def order: Array[Int] = inner.order
  override def tauEvals: Long = inner.tauEvals

  override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
    val t0 = System.nanoTime()
    val r = inner.computeBound(base, freeFrom, k)
    calls += ((t0, System.nanoTime()))
    r
  }
}
