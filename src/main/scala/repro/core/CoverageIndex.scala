package repro.core

import org.apache.spark.sql.DataFrame
import repro.influence.MrrSampler.Fragment
import scala.collection.mutable

/** Driver-side inverted index of MRR membership, restricted to the promoter
  * pool Vp (only promoters can be seeds, so only their memberships matter for
  * coverage and AU).
  *
  * A *candidate* is one (promoter, piece) assignment; candidate index
  * `c = promoterIdx * ell + piece`. `coverage(c)` lists the samples whose RR
  * set for `piece` contains the promoter — selecting the candidate covers
  * exactly those (sample, piece) cells.
  *
  * @param theta     number of MRR samples drawn
  * @param ell       number of viral pieces
  * @param nVertices |V| of the underlying graph (estimator scale n/θ)
  * @param promoters sorted promoter pool Vp
  */
final class CoverageIndex(
    val theta: Int,
    val ell: Int,
    val nVertices: Long,
    val promoters: Array[Long],
    cov: Array[Array[Int]]) {

  require(theta.toLong * ell <= Int.MaxValue,
    s"theta × ell = $theta × $ell overflows the Int (sample, piece) cell index")
  require(promoters.length.toLong * ell <= Int.MaxValue,
    s"${promoters.length} promoters × $ell pieces overflow the Int candidate id")
  require(cov.length == promoters.length * ell,
    s"coverage arity mismatch: ${cov.length} lists for ${promoters.length} promoters × $ell pieces")

  private val promoterIdx: Map[Long, Int] = promoters.zipWithIndex.toMap

  def candidateCount: Int = promoters.length * ell

  def candidateOf(promoter: Long, piece: Int): Int = {
    require(piece >= 0 && piece < ell, s"piece $piece out of [0, $ell)")
    val p = promoterIdx.getOrElse(promoter,
      throw new IllegalArgumentException(s"vertex $promoter is not in the promoter pool"))
    p * ell + piece
  }

  def promoterOf(c: Int): Long = promoters(c / ell)

  def pieceOf(c: Int): Int = c % ell

  /** Sorted sample ids covered by candidate `c`. */
  def coverage(c: Int): Array[Int] = cov(c)

  /** Estimator scale n/θ (Eqn 6). */
  def scale: Double = nVertices.toDouble / theta

  /** Per-sample coverage counts (number of distinct pieces received) under a
    * candidate set. Cells covered twice (two promoters of the same piece in
    * one RR set) count once.
    */
  def coverageCounts(candidates: Iterable[Int]): Array[Int] = {
    val counts = new Array[Int](theta)
    val cell = new java.util.BitSet(theta * ell)
    for (c <- candidates) {
      val piece = pieceOf(c)
      val samples = cov(c)
      var i = 0
      while (i < samples.length) {
        val bit = samples(i) * ell + piece
        if (!cell.get(bit)) { cell.set(bit); counts(samples(i)) += 1 }
        i += 1
      }
    }
    counts
  }

  /** AU estimate of a candidate set (Eqn 6, honouring Eqn 1's zero case). */
  def au(candidates: Iterable[Int], params: LogisticParams): Double = {
    val counts = coverageCounts(candidates)
    var s = 0.0
    var i = 0
    while (i < theta) { s += params.adoptionProb(counts(i)); i += 1 }
    scale * s
  }

  /** AU estimate of a vertex-level plan. */
  def auOfPlan(plan: Plan, params: LogisticParams): Double = {
    require(plan.ell == ell, s"plan arity mismatch: ${plan.ell} vs $ell")
    au(plan.assignments.map { case (v, j) => candidateOf(v, j) }, params)
  }

  /** Vertex-level plan view of a candidate set. */
  def toPlan(candidates: Iterable[Int]): Plan =
    Plan.fromAssignments(ell, candidates.map(c => (promoterOf(c), pieceOf(c))).toSeq)

  /** Restriction to the first `newEll` pieces. Pieces propagate independently,
    * so the sub-campaign's MRR index is exactly this projection — the ℓ-sweep
    * benches sample once at the largest ℓ and restrict.
    */
  def takePieces(newEll: Int): CoverageIndex = {
    require(newEll > 0 && newEll <= ell, s"newEll must lie in [1, $ell], got $newEll")
    val newCov = Array.tabulate(promoters.length * newEll) { c =>
      cov((c / newEll) * ell + (c % newEll))
    }
    new CoverageIndex(theta, newEll, nVertices, promoters, newCov)
  }
}

object CoverageIndex {

  /** Build the index from sampler output `(sample, piece, v)`, keeping only
    * promoter memberships.
    */
  def build(
      mrr: DataFrame,
      theta: Int,
      ell: Int,
      nVertices: Long,
      promoters: Array[Long]): CoverageIndex = {
    val sortedPromoters = promoters.distinct.sorted
    val pIdx = sortedPromoters.zipWithIndex.toMap
    val lists = Array.fill(sortedPromoters.length * ell)(new mutable.ArrayBuilder.ofInt)

    val spark = mrr.sparkSession
    import spark.implicits._
    val pool = spark.sparkContext.broadcast(sortedPromoters.toSet)
    val rows = mrr
      .select("sample", "piece", "v")
      .filter(r => pool.value.contains(r.getLong(2)))
      .as[(Int, Int, Long)]
      .collect()
    pool.destroy()

    for ((sample, piece, v) <- rows) {
      require(sample >= 0 && sample < theta, s"sample $sample out of [0, $theta)")
      require(piece >= 0 && piece < ell, s"piece $piece out of [0, $ell)")
      lists(pIdx(v) * ell + piece) += sample
    }
    val cov = lists.map(b => b.result().distinct.sorted)
    new CoverageIndex(theta, ell, nVertices, sortedPromoters, cov)
  }

  /** Merge the sampler's promoter fragments (`MrrSampler.sampleFragments`)
    * by a counting sort on the candidate id. `promoters` must be the sorted
    * pool the fragments were sampled against. Fragments in ascending sample
    * order with no repeated pair give sorted, distinct lists directly.
    */
  def merge(
      fragments: Array[Fragment],
      theta: Int,
      ell: Int,
      nVertices: Long,
      promoters: Array[Long]): CoverageIndex = {
    val nCand = Math.multiplyExact(promoters.length, ell)
    val counts = new Array[Int](nCand)
    for (f <- fragments; c <- f.candidates) counts(c) += 1
    val cov = counts.map(new Array[Int](_))
    val fill = new Array[Int](nCand)
    for (f <- fragments) {
      var i = 0
      while (i < f.candidates.length) {
        val c = f.candidates(i)
        val s = f.samples(i)
        require(s >= 0 && s < theta, s"sample $s out of [0, $theta)")
        require(fill(c) == 0 || cov(c)(fill(c) - 1) < s, s"candidate $c: samples out of order at $s")
        cov(c)(fill(c)) = s
        fill(c) += 1
        i += 1
      }
    }
    new CoverageIndex(theta, ell, nVertices, promoters, cov)
  }
}
