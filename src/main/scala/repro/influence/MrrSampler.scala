package repro.influence

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.HashRng

/** Multi-Reverse-Reachable (MRR) set sampling (§V-A).
  *
  * For each of `theta` samples a root user is drawn uniformly from V; for each
  * viral piece `t_j` a reverse-reachable set is grown on the piece's
  * homogeneous influence graph (edge kept with probability `p(t_j, e)`).
  * Output rows are `(sample: Int, piece: Int, v: Long)` — the union of all RR
  * memberships, root included.
  *
  * Edge liveness is a pure hash of `(seed, sample, piece, src, dst)`, so one
  * (sample, piece) pair sees one fixed live-edge world, the exact live-edge
  * semantics RR sets require, and any engine that flips the same coins draws
  * the same sets (tests pin this kernel against an independent DataFrame-join
  * sampler).
  *
  * `sampleBroadcast` — the graph is collected once into a [[ReverseCsr]]
  * with one probability row per piece and broadcast; samples are partitioned
  * across executors and each partition runs a local reverse BFS (`RrKernel`).
  * Only the reverse adjacency has to fit in memory (Borgs et al., SODA 2014).
  *
  * `sampleFragments` runs the same kernel on an already broadcast CSR but
  * keeps only promoter memberships, as `(candidate, sample)` fragments that
  * `CoverageIndex.merge` turns into an index without a row DataFrame.
  */
object MrrSampler {

  private val TagRoot = 201L
  private val TagCoin = 202L

  final case class MrrConfig(theta: Int, seed: Long = 1L) {
    require(theta > 0, s"theta must be positive, got $theta")
  }

  /** The root user of sample `i` — uniform over [0, n). */
  def rootOf(sample: Int, n: Long, seed: Long): Long =
    HashRng.uniformLong(n, HashRng.mix(seed, TagRoot), sample.toLong)

  /** The liveness coin of edge (src→dst) in the world of (sample, piece). */
  def edgeAlive(sample: Int, piece: Int, src: Long, dst: Long, p: Double, seed: Long): Boolean =
    HashRng.uniform(seed, TagCoin, sample.toLong, piece.toLong, src, dst) < p

  /** Broadcast sampler: samples partitioned across the cluster, graph
    * shipped once as a [[ReverseCsr]] with one row per piece.
    * Rows are emitted lazily; only the CSR build runs eagerly.
    */
  def sampleBroadcast(
      spark: SparkSession,
      edges: DataFrame,
      n: Long,
      pieces: Seq[Piece],
      cfg: MrrConfig): DataFrame = {
    import spark.implicits._
    val seed = cfg.seed
    val bc = spark.sparkContext.broadcast(ReverseCsr.collect(edges, n, pieces))
    val ell = pieces.length

    spark.range(cfg.theta)
      .mapPartitions { it =>
        val kernel = new RrKernel(bc.value)
        it.flatMap { id =>
          val sample = id.toInt
          val root = rootOf(sample, n, seed).toInt
          (0 until ell).iterator.flatMap { piece =>
            val size = kernel.traverse(sample, root, piece, piece, seed)
            Iterator.range(0, size).map(i => (sample, piece, kernel.member(i).toLong))
          }
        }
      }
      .toDF("sample", "piece", "v")
  }

  /** One partition's promoter memberships: entry `i` says that candidate
    * `candidates(i)` (`promoterIdx * ell + piece`) covers sample `samples(i)`.
    * Entries are in ascending sample order and no pair repeats.
    */
  final case class Fragment(candidates: Array[Int], samples: Array[Int])

  /** Sample `cfg.theta` MRR sets on the broadcast CSR and keep only the
    * memberships of `promoters` (sorted, distinct).
    *
    * Piece `j` of the sampled campaign is CSR row `rows(j)` and uses `j` as
    * its coin's piece index, so the samples equal `sampleBroadcast` on the
    * pieces of `rows` at the same seed. Fragments come back in partition
    * order, hence in ascending sample order overall.
    */
  def sampleFragments(
      spark: SparkSession,
      csr: Broadcast[ReverseCsr],
      rows: Seq[Int],
      cfg: MrrConfig,
      promoters: Array[Long]): Array[Fragment] = {
    import spark.implicits._
    val seed = cfg.seed
    val ell = rows.length
    val rowOf = rows.toArray
    require(ell > 0, "need at least one piece")
    require(rowOf.forall(r => r >= 0 && r < csr.value.numRows),
      s"rows ${rowOf.mkString(",")} out of [0, ${csr.value.numRows})")
    require(promoters.length.toLong * ell <= Int.MaxValue,
      s"${promoters.length} promoters × $ell pieces overflow the Int candidate id")

    spark.range(cfg.theta)
      .mapPartitions { it =>
        val g = csr.value
        val kernel = new RrKernel(g)
        val promoterIdx = Array.fill(g.nVertices)(-1)
        var p = 0
        while (p < promoters.length) { promoterIdx(promoters(p).toInt) = p; p += 1 }
        val candidates = Array.newBuilder[Int]
        val samples = Array.newBuilder[Int]
        it.foreach { id =>
          val sample = id.toInt
          val root = rootOf(sample, g.nVertices, seed).toInt
          var piece = 0
          while (piece < ell) {
            val size = kernel.traverse(sample, root, rowOf(piece), piece, seed)
            var i = 0
            while (i < size) {
              val pi = promoterIdx(kernel.member(i))
              if (pi >= 0) { candidates += pi * ell + piece; samples += sample }
              i += 1
            }
            piece += 1
          }
        }
        Iterator.single(Fragment(candidates.result(), samples.result()))
      }
      .collect()
  }
}

/** Reverse BFS over a [[ReverseCsr]], one partition's worth of scratch
  * space: an epoch-stamped visited array (a vertex is visited when its stamp
  * equals the current traversal's epoch, so nothing is cleared between
  * traversals) and a work array whose prefix is the RR set found so far.
  */
private final class RrKernel(csr: ReverseCsr) {
  private val stamp = new Array[Int](csr.nVertices)
  private var epoch = 0
  private var work = new Array[Int](64)

  /** Grow the RR set of `root` on CSR row `row` in the live-edge world of
    * `(sample, coinPiece)`. Returns its size; `member(0 until size)` lists it,
    * root first.
    */
  def traverse(sample: Int, root: Int, row: Int, coinPiece: Int, seed: Long): Int = {
    if (epoch == Int.MaxValue) { java.util.Arrays.fill(stamp, 0); epoch = 0 }
    epoch += 1
    val offsets = csr.offsets
    val sources = csr.sources
    val p = csr.probs(row)
    stamp(root) = epoch
    work(0) = root
    var size = 1
    var head = 0
    while (head < size) {
      val v = work(head)
      head += 1
      var e = offsets(v)
      val end = offsets(v + 1)
      while (e < end) {
        val u = sources(e)
        if (stamp(u) != epoch && p(e) > 0 &&
            MrrSampler.edgeAlive(sample, coinPiece, u.toLong, v.toLong, p(e), seed)) {
          stamp(u) = epoch
          if (size == work.length) work = java.util.Arrays.copyOf(work, size * 2)
          work(size) = u
          size += 1
        }
        e += 1
      }
    }
    size
  }

  def member(i: Int): Int = work(i)
}
