package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.ExperimentRunner.Prepared
import repro.exp.Figures
import repro.graphgen.Datasets

/** Shared plumbing for the spark-submit entrypoints (one per evaluation
  * table/figure). Each job prints its table from `repro.exp.Figures`, the
  * definition the bench suites check.
  *
  * Usage: `spark-submit --class repro.jobs.<Job> <jar> [dataset] [theta]`
  * where dataset ∈ {lastfm, dblp, tweet} (default: lastfm).
  */
object JobCommon {

  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def dataset(args: Array[String]): repro.graphgen.GraphSpec =
    args.headOption.getOrElse("lastfm") match {
      case "lastfm" => Datasets.lastfmLike
      case "dblp"   => Datasets.dblpLike
      case "tweet"  => Datasets.tweetLike
      case "mini"   => Datasets.mini
      case other    => throw new IllegalArgumentException(s"unknown dataset '$other'")
    }

  def theta(args: Array[String], default: Int): Int =
    args.lift(1).map(_.toInt).getOrElse(default)

  /** Print the table `render` makes in a fresh session, then stop it. */
  def printTable(name: String)(render: SparkSession => String): Unit = {
    val spark = session(name)
    try println(render(spark)) finally spark.stop()
  }

  /** Print `figure` of the dataset `args` names, prepared once. */
  def printFigure(name: String, args: Array[String])(figure: Prepared => String): Unit =
    printTable(name) { spark =>
      val spec = dataset(args)
      figure(Figures.prepare(spark, spec, theta(args, Figures.theta(spec))))
    }
}

/** Table III: dataset statistics and MRR sample time. */
object DatasetStats {
  def main(args: Array[String]): Unit = JobCommon.printTable("oipa-dataset-stats")(spark =>
    Figures.datasetStats(Datasets.all.map(spec => Figures.prepare(spark, spec, Figures.theta(spec)))))
}

/** Figure 4: utility and selection time vs budget k, four methods. */
object VaryK {
  def main(args: Array[String]): Unit = JobCommon.printFigure("oipa-vary-k", args)(Figures.varyK(_).table)
}

/** Figure 5: utility and selection time vs number of viral pieces ℓ. */
object VaryL {
  def main(args: Array[String]): Unit = JobCommon.printFigure("oipa-vary-l", args)(Figures.varyL(_).table)
}

/** Figure 6: utility vs the adoption-difficulty ratio β/α. */
object VaryBetaAlpha {
  def main(args: Array[String]): Unit =
    JobCommon.printFigure("oipa-vary-beta-alpha", args)(Figures.varyBetaAlpha(_).table)
}

/** Figure 3: BAB-P utility vs the progressive-threshold parameter ε. */
object VaryEpsilon {
  def main(args: Array[String]): Unit =
    JobCommon.printFigure("oipa-vary-epsilon", args)(Figures.varyEpsilon(_).table)
}
