package repro.influence

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}

/** A viral piece: a probability distribution over the hidden topics Z.
  *
  * The experiments use one-hot pieces ("uniformly sampling a non-zero topic
  * dimension", §VI-A); arbitrary mixtures are supported because the IM
  * baseline propagates a uniform topic mixture.
  */
final case class Piece(weights: Array[Double]) {
  require(weights.nonEmpty, "a piece needs at least one topic weight")
  require(weights.forall(w => w >= 0 && w <= 1), "topic weights must lie in [0,1]")

  def numTopics: Int = weights.length

  /** p(t, e) = t · p(e): the piece's activation probability through an edge. */
  def edgeProb(edgeProbs: Array[Double]): Double = {
    require(edgeProbs.length == weights.length,
      s"topic arity mismatch: edge=${edgeProbs.length}, piece=${weights.length}")
    var s = 0.0
    var z = 0
    while (z < weights.length) { s += weights(z) * edgeProbs(z); z += 1 }
    math.min(1.0, s)
  }
}

object Piece {

  /** A piece entirely about topic `topic` (the experiments' default shape). */
  def oneHot(topic: Int, numTopics: Int): Piece = {
    require(topic >= 0 && topic < numTopics, s"topic $topic out of [0, $numTopics)")
    val w = new Array[Double](numTopics)
    w(topic) = 1.0
    Piece(w)
  }

  /** Uniform mixture over all topics — the topic-agnostic view used by the
    * IM baseline, equivalent to averaging p(e|z) over z.
    */
  def uniformMixture(numTopics: Int): Piece =
    Piece(Array.fill(numTopics)(1.0 / numTopics))
}

/** Topic-aware influence graph substrate (§III-A).
  *
  * Edges are a DataFrame with schema `(src: Long, dst: Long, probs: Array
  * [Double])` where `probs(z) = p(e|z)`. All per-piece influence graphs are
  * projections of this one table.
  */
object TopicGraph {

  /** Homogeneous influence graph of one piece: `(src, dst, p)` with
    * `p = piece · probs`, zero-probability edges dropped (Figure 1 b/c).
    */
  def influenceGraph(edges: DataFrame, piece: Piece): DataFrame = {
    val dot = udf((probs: Seq[Double]) => piece.edgeProb(probs.toArray))
    edges
      .select(col("src"), col("dst"), dot(col("probs")).as("p"))
      .where(col("p") > 0)
  }
}
