package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.ExperimentRunner.Prepared
import repro.exp.Figures
import repro.graphgen.GraphSpec
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

/** One [[DatasetFigures]] per dataset and JVM, shared across bench suites. */
object FigureCache {
  private val cache = mutable.Map.empty[String, DatasetFigures]

  def get(spark: SparkSession, spec: GraphSpec): DatasetFigures =
    synchronized {
      cache.getOrElseUpdate(spec.name,
        new DatasetFigures(Figures.prepare(spark, spec, Figures.theta(spec))))
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
