package perfbench

import org.apache.spark.sql.DataFrame
import repro.core.CoverageIndex

/** Order-independent 64-bit digests of the benchmark's inputs and indices.
  *
  * Each element is hashed on its own and the hashes are added modulo 2⁶⁴, so
  * the digest does not depend on partitioning, collect order or the order of
  * an index's lists. The hash is local to the benchmark, so a change to the
  * program's own hashing shows up as a changed digest rather than a changed
  * definition.
  */
object Digest {

  /** SplitMix64 finaliser. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Ordered hash of one element's fields. */
  def element(fields: Long*): Long = fields.foldLeft(0x5DEECE66DL)((h, f) => mix(h ^ f))

  /** Order-independent digest of a collection of element hashes. */
  def unordered(hashes: IterableOnce[Long]): Long = hashes.iterator.foldLeft(0L)(_ + _)

  /** Hash of one edge row. */
  def edge(src: Long, dst: Long, probs: Seq[Double]): Long =
    element(src +: dst +: probs.map(java.lang.Double.doubleToLongBits): _*)

  /** Digest of an edge table `(src, dst, probs)`, computed on the executors. */
  def edges(df: DataFrame): Long =
    df.select("src", "dst", "probs").rdd
      .map(r => edge(r.getLong(0), r.getLong(1), r.getSeq[Double](2)))
      .fold(0L)(_ + _)

  /** Digest of a coverage index: every (promoter, piece, sample) entry plus
    * the index's shape.
    */
  def index(idx: CoverageIndex): Long =
    element(idx.theta.toLong, idx.ell.toLong, idx.nVertices, idx.candidateCount.toLong) +
      unordered(for {
        c <- Iterator.range(0, idx.candidateCount)
        s <- idx.coverage(c).iterator
      } yield element(idx.promoterOf(c), idx.pieceOf(c).toLong, s.toLong))
}
