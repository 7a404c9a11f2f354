package repro.influence

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.influence.MrrSampler.{MrrConfig, edgeAlive, rootOf}

/** Independent reference for [[MrrSampler]]: the same MRR sets grown as an
  * iterative DataFrame job. Each round joins the frontier against the
  * per-piece edge table, flips the sampler's liveness coins, anti-joins
  * against the visited set to dedupe, and `localCheckpoint`s to truncate
  * lineage. Output rows are `(sample, piece, v)` as in `sampleBroadcast`.
  */
object IterativeSampler {

  /** Union of all per-piece influence graphs, tagged by piece index:
    * `(piece, src, dst, p)` — the one table every frontier round joins.
    */
  def influenceGraphs(edges: DataFrame, pieces: Seq[Piece]): DataFrame = {
    require(pieces.nonEmpty, "need at least one piece")
    pieces.zipWithIndex
      .map { case (t, j) => TopicGraph.influenceGraph(edges, t).select(lit(j).as("piece"), col("src"), col("dst"), col("p")) }
      .reduce(_ unionByName _)
  }

  /** Throws `IllegalStateException` when the frontier is still non-empty
    * after `maxIters` rounds rather than return truncated RR sets.
    */
  def sample(
      spark: SparkSession,
      edges: DataFrame,
      n: Long,
      pieces: Seq[Piece],
      cfg: MrrConfig,
      maxIters: Int = 64): DataFrame = {
    require(maxIters > 0, s"maxIters must be positive, got $maxIters")
    val seed = cfg.seed

    val pe = influenceGraphs(edges, pieces)
      .select(col("piece").as("epiece"), col("src").as("esrc"), col("dst").as("edst"), col("p"))
      .persist()
    pe.count() // materialize once; reused every round

    val rootUdf = udf((sample: Int) => rootOf(sample, n, seed))
    val pieceIdx = typedLit(pieces.indices.toList)
    var visited = spark.range(cfg.theta)
      .select(col("id").cast("int").as("sample"), explode(pieceIdx).as("piece"))
      .withColumn("v", rootUdf(col("sample")))
      .localCheckpoint(true)
    var frontier = visited

    val aliveUdf = udf((sample: Int, piece: Int, src: Long, dst: Long, p: Double) =>
      edgeAlive(sample, piece, src, dst, p, seed))

    var iter = 0
    var done = false
    while (!done) {
      if (iter == maxIters) {
        val open = frontier.select("sample").distinct().count()
        pe.unpersist()
        throw new IllegalStateException(
          s"IterativeSampler: $open samples still on the frontier after maxIters=$maxIters rounds")
      }
      val cand = frontier
        .join(pe, frontier("piece") === pe("epiece") && frontier("v") === pe("edst"))
        .where(aliveUdf(col("sample"), col("piece"), col("esrc"), col("edst"), col("p")))
        .select(col("sample"), col("piece"), col("esrc").as("v"))
        .distinct()
      val newFrontier = cand
        .join(visited, Seq("sample", "piece", "v"), "left_anti")
        .localCheckpoint(true)
      if (newFrontier.isEmpty) done = true
      else {
        visited = visited.union(newFrontier).localCheckpoint(true)
        frontier = newFrontier
      }
      iter += 1
    }
    pe.unpersist()
    visited
  }
}
