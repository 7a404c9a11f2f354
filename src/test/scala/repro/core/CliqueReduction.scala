package repro.core

import repro.influence.Piece
import repro.testkit.TopicEdge

/** The §IV gap-preserving reduction from Maximum Clique to OIPA.
  *
  * Given an MC instance on n vertices it builds an OIPA instance with 3n
  * vertices (xᵢ, yᵢ, rᵢ), n one-hot pieces, deterministic edges
  * (xᵢ → r_j for j ∈ {i} ∪ N(i); yᵢ → r_j for j ≠ i, all with p = 1 on topic
  * i), promoter pool {xᵢ} ∪ {yᵢ}, budget k = n, and logistic parameters
  * α = 2n·ln(2n), β = 2·ln(2n) — so a vertex receiving all n pieces adopts
  * with probability ½ while one receiving ≤ n−1 adopts with probability
  * ≤ 1/(1+(2n)²). Tests verify Lemma 1's sandwich on brute-forced optima.
  */
object CliqueReduction {

  final case class Instance(
      edges: Seq[TopicEdge],
      vertices: Seq[Long],
      pieces: Seq[Piece],
      promoterPool: Seq[Long],
      k: Int,
      params: LogisticParams) {
    def x(i: Int): Long = i.toLong
    def y(i: Int): Long = (k + i).toLong
    def r(i: Int): Long = (2 * k + i).toLong
  }

  /** Build the OIPA instance Πb from an undirected MC instance Πa.
    *
    * @param n      vertex count of Πa (vertices 0..n−1)
    * @param ugEdges undirected edges of Πa as unordered pairs
    */
  def build(n: Int, ugEdges: Set[(Int, Int)]): Instance = {
    require(n >= 2, s"need at least 2 vertices, got $n")
    ugEdges.foreach { case (a, b) =>
      require(a != b && a >= 0 && b >= 0 && a < n && b < n, s"bad edge ($a,$b)")
    }
    val neighbors: Int => Set[Int] = i =>
      ugEdges.collect { case (a, b) if a == i => b; case (a, b) if b == i => a }

    def oneHot(i: Int): Array[Double] = {
      val p = new Array[Double](n); p(i) = 1.0; p
    }

    val xOf: Int => Long = i => i.toLong
    val yOf: Int => Long = i => (n + i).toLong
    val rOf: Int => Long = i => (2 * n + i).toLong

    val xEdges = for {
      i <- 0 until n
      j <- (neighbors(i) + i).toSeq.sorted
    } yield TopicEdge(xOf(i), rOf(j), oneHot(i))
    val yEdges = for {
      i <- 0 until n
      j <- 0 until n if j != i
    } yield TopicEdge(yOf(i), rOf(j), oneHot(i))

    val beta = 2.0 * math.log(2.0 * n)
    Instance(
      edges = xEdges ++ yEdges,
      vertices = (0L until 3L * n).toSeq,
      pieces = (0 until n).map(i => Piece.oneHot(i, n)),
      promoterPool = (0 until n).flatMap(i => Seq(xOf(i), yOf(i))),
      k = n,
      params = LogisticParams(alpha = n * beta, beta = beta))
  }

  /** Brute-force maximum clique size of Πa (test-scale only). */
  def maxCliqueSize(n: Int, ugEdges: Set[(Int, Int)]): Int = {
    val norm = ugEdges.map { case (a, b) => (math.min(a, b), math.max(a, b)) }
    def isClique(vs: Seq[Int]): Boolean =
      vs.combinations(2).forall { case Seq(a, b) => norm.contains((math.min(a, b), math.max(a, b))) }
    (n to 1 by -1)
      .find(size => (0 until n).combinations(size).exists(isClique))
      .getOrElse(0)
  }

  /** Brute-force OPT(Πb): best exact σ over plans of budget k. */
  def bruteForceOpt(inst: Instance): Double =
    BruteForce.bestExact(
      inst.edges, inst.vertices, inst.pieces, inst.promoterPool, inst.k, inst.params)._2
}
