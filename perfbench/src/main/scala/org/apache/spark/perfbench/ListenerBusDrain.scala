package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Listener events arrive asynchronously; waiting for the bus to drain makes
  * the counters read at a span's end include every task that ran inside it.
  * The bus is package-private to Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
