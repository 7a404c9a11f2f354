package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Adoption-utility estimate over sampled MRR rows, purely in Spark SQL: the
  * same Eqn 6 arithmetic as [[CoverageIndex.auOfPlan]], written so it can be
  * cross-checked against DuckDB with `Oracle.assertEquivalent`.
  */
object AuEvaluator {

  /** Per-sample coverage counts as a DataFrame: join MRR membership
    * `(sample, piece, v)` against the plan's `(piece, v)` assignments, count
    * distinct covered pieces per sample. Samples covered by no piece are
    * *absent* from the result (their AU contribution is 0 by Eqn 1).
    */
  def coverageCounts(spark: SparkSession, mrr: DataFrame, plan: Plan): DataFrame = {
    import spark.implicits._
    val assignments = plan.assignments.map { case (v, j) => (j, v) }
    if (assignments.isEmpty) {
      spark.emptyDataset[(Int, Long)].toDF("sample", "cnt")
        .select(col("sample").cast("int").as("sample"), col("cnt"))
    } else {
      val planDf = assignments.toDF("piece", "v")
      mrr.join(planDf, Seq("piece", "v"))
        .select("sample", "piece").distinct()
        .groupBy("sample").agg(count(lit(1)).as("cnt"))
    }
  }

  /** One-row DataFrame `(au: Double)` with the plan's AU estimate:
    * `n/θ · Σ_covered 1/(1+exp(α − β·cnt))`.
    */
  def dataFrame(
      spark: SparkSession,
      mrr: DataFrame,
      plan: Plan,
      params: LogisticParams,
      nVertices: Long,
      theta: Int): DataFrame = {
    val counts = coverageCounts(spark, mrr, plan)
    counts
      .select(lit(1.0) / (lit(1.0) + exp(lit(params.alpha) - lit(params.beta) * col("cnt"))) as "p")
      .agg(coalesce(sum(col("p")), lit(0.0)).as("sumP"))
      .select((lit(nVertices.toDouble / theta) * col("sumP")).as("au"))
  }

  /** Convenience: the AU estimate as a plain double. */
  def evaluate(
      spark: SparkSession,
      mrr: DataFrame,
      plan: Plan,
      params: LogisticParams,
      nVertices: Long,
      theta: Int): Double =
    dataFrame(spark, mrr, plan, params, nVertices, theta).head().getDouble(0)
}
