package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.ExperimentRunner.Prepared
import repro.exp.Figures
import repro.graphgen.{Datasets, GraphSpec}
import scala.collection.mutable

/** Every table and figure of one dataset, each computed on first use from
  * the dataset's one `Figures.prepare`.
  */
final class DatasetFigures(val prep: Prepared) {
  lazy val fig3: Figures.Sweep[Double] = Figures.varyEpsilon(prep)
  lazy val fig4: Figures.Sweep[Int] = Figures.varyK(prep)
  lazy val fig5: Figures.Sweep[Int] = Figures.varyL(prep)
  lazy val fig6: Figures.Sweep[Double] = Figures.varyBetaAlpha(prep)
  lazy val speedup: Seq[Figures.Speedup] = Figures.speedup(fig4)
}

/** One [[DatasetFigures]] per dataset and JVM, shared across bench suites.
  * Before the first dataset, every figure is computed once on
  * [[Datasets.mini]] and discarded, so no reported time includes JIT warm-up.
  */
object FigureCache {
  private val cache = mutable.Map.empty[String, DatasetFigures]
  private var warm = false

  private def compute(spark: SparkSession, spec: GraphSpec): DatasetFigures =
    new DatasetFigures(Figures.prepare(spark, spec, Figures.theta(spec)))

  def get(spark: SparkSession, spec: GraphSpec): DatasetFigures =
    synchronized {
      if (!warm) {
        val w = compute(spark, Datasets.mini)
        w.fig3; w.fig5; w.fig6; w.speedup // speedup computes fig4
        w.prep.edges.unpersist()
        warm = true
      }
      cache.getOrElseUpdate(spec.name, compute(spark, spec))
    }
}

/** Base trait for bench suites: SparkSpec plus result-table plumbing. */
trait BenchBase extends SparkSpec {

  def figures(spec: GraphSpec): DatasetFigures = FigureCache.get(spark, spec)

  /** Print a result table with a grep-friendly marker for EXPERIMENTS.md. */
  def report(title: String, table: String): Unit = {
    println(s"\n==== BENCH: $title ====")
    print(table)
    println(s"==== END: $title ====\n")
  }
}
