package repro.testkit

import org.apache.spark.sql.{DataFrame, SparkSession}

/** One topic-aware edge held on the driver: the input format of the exact,
  * brute-force and forward-simulation oracles and of hand-built graphs.
  */
final case class TopicEdge(src: Long, dst: Long, probs: Array[Double])

object TopicEdge {

  /** Build the `(src, dst, probs)` edge DataFrame from in-memory edges. */
  def fromEdges(spark: SparkSession, edges: Seq[TopicEdge]): DataFrame = {
    val arity = edges.headOption.map(_.probs.length)
    require(edges.forall(e => arity.contains(e.probs.length)),
      "all edges must carry the same number of topics")
    import spark.implicits._
    edges.map(e => (e.src, e.dst, e.probs.toSeq)).toDF("src", "dst", "probs")
  }

  /** Collect an edge DataFrame to the driver (oracle inputs). */
  def collectEdges(edges: DataFrame): Seq[TopicEdge] =
    edges.select("src", "dst", "probs").collect().toSeq.map { r =>
      TopicEdge(r.getLong(0), r.getLong(1), r.getSeq[Double](2).toArray)
    }
}
