package repro.influence

import repro.SparkSpec
import repro.graphgen.{Datasets, SocialGraphGen}
import repro.influence.MrrSampler.MrrConfig
import repro.testkit.{ExampleGraphs, TopicEdge}

class MrrSamplerSpec extends SparkSpec {

  private def rows(df: org.apache.spark.sql.DataFrame): Set[(Int, Int, Long)] =
    df.select("sample", "piece", "v").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getLong(2))).toSet

  private lazy val exampleDf = TopicEdge.fromEdges(spark, ExampleGraphs.edges)

  test("roots are uniform over V and deterministic") {
    val n = 1000L
    val roots = (0 until 5000).map(MrrSampler.rootOf(_, n, seed = 3L))
    assert(roots.forall(r => r >= 0 && r < n))
    assert(roots.toSet.size > 900, s"only ${roots.toSet.size} distinct roots")
    assert(roots == (0 until 5000).map(MrrSampler.rootOf(_, n, seed = 3L)))
  }

  test("edgeAlive is deterministic and respects the probability") {
    val p = 0.25
    val alive = (0 until 20000).count(s => MrrSampler.edgeAlive(s, 0, 1L, 2L, p, 7L))
    assert(math.abs(alive / 20000.0 - p) < 0.02)
    assert(MrrSampler.edgeAlive(1, 0, 1L, 2L, 0.0, 7L) == false)
    assert(MrrSampler.edgeAlive(1, 0, 1L, 2L, 1.0, 7L) == true)
  }

  test("broadcast sampler reproduces exact deterministic RR sets on Example 1") {
    val cfg = MrrConfig(theta = 60, seed = 5L)
    val out = rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, cfg))
    (0 until cfg.theta).foreach { s =>
      val root = MrrSampler.rootOf(s, 5, cfg.seed)
      (0 until 2).foreach { j =>
        val got = out.collect { case (`s`, `j`, v) => v }
        assert(got == ExampleGraphs.rrSet(root, j), s"sample=$s piece=$j root=$root")
      }
    }
  }

  test("iterative sampler reproduces exact deterministic RR sets on Example 1") {
    val cfg = MrrConfig(theta = 25, seed = 5L)
    val out = rows(IterativeSampler.sample(spark, exampleDf, 5, ExampleGraphs.pieces, cfg))
    (0 until cfg.theta).foreach { s =>
      val root = MrrSampler.rootOf(s, 5, cfg.seed)
      (0 until 2).foreach { j =>
        val got = out.collect { case (`s`, `j`, v) => v }
        assert(got == ExampleGraphs.rrSet(root, j), s"sample=$s piece=$j root=$root")
      }
    }
  }

  test("iterative and broadcast samplers are bit-identical on a random graph") {
    val edges = SocialGraphGen.generate(spark, Datasets.mini)
    val pieces = Seq(Piece.oneHot(0, 5), Piece.oneHot(2, 5))
    val cfg = MrrConfig(theta = 150, seed = 9L)
    val a = rows(IterativeSampler.sample(spark, edges, Datasets.mini.nVertices, pieces, cfg))
    val b = rows(MrrSampler.sampleBroadcast(spark, edges, Datasets.mini.nVertices, pieces, cfg))
    assert(a == b, s"iterative=${a.size} broadcast=${b.size} symmdiff=${(a diff b) ++ (b diff a)}")
  }

  test("every (sample, piece) set contains its root") {
    val edges = SocialGraphGen.generate(spark, Datasets.mini)
    val pieces = Seq(Piece.oneHot(1, 5))
    val cfg = MrrConfig(theta = 100, seed = 11L)
    val out = rows(MrrSampler.sampleBroadcast(spark, edges, Datasets.mini.nVertices, pieces, cfg))
    (0 until cfg.theta).foreach { s =>
      val root = MrrSampler.rootOf(s, Datasets.mini.nVertices, cfg.seed)
      assert(out.contains((s, 0, root)))
    }
  }

  test("a zero-probability campaign yields singleton RR sets") {
    val pieces = Seq(Piece(Array(0.0, 0.0))) // relates to no topic
    val cfg = MrrConfig(theta = 30, seed = 13L)
    val out = rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, pieces, cfg))
    assert(out.size == 30)
    out.foreach { case (s, j, v) =>
      assert(j == 0)
      assert(v == MrrSampler.rootOf(s, 5, cfg.seed))
    }
  }

  test("RR membership grows with edge probabilities") {
    // Same structure, scaled probabilities: supersets in expectation.
    val weak = TopicEdge.fromEdges(spark,
      ExampleGraphs.edges.map(e => e.copy(probs = e.probs.map(_ * 0.2))))
    val cfg = MrrConfig(theta = 300, seed = 15L)
    val strong = rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, cfg))
    val weakRows = rows(MrrSampler.sampleBroadcast(spark, weak, 5, ExampleGraphs.pieces, cfg))
    assert(weakRows.size < strong.size)
  }

  test("RR set size distribution matches exact reachability frequencies") {
    // On the deterministic example graph the RR set of root v under piece j
    // is exactly the reverse closure; sampling only varies the root draw.
    val cfg = MrrConfig(theta = 2000, seed = 17L)
    val out = rows(MrrSampler.sampleBroadcast(spark, exampleDf, 5, ExampleGraphs.pieces, cfg))
    val expected = (0 until cfg.theta).map { s =>
      val root = MrrSampler.rootOf(s, 5, cfg.seed)
      ExampleGraphs.rrSet(root, 0).size + ExampleGraphs.rrSet(root, 1).size
    }.sum
    assert(out.size == expected)
  }

  test("config validation") {
    intercept[IllegalArgumentException](MrrConfig(theta = 0))
    intercept[IllegalArgumentException](
      IterativeSampler.sample(spark, exampleDf, 5, ExampleGraphs.pieces, MrrConfig(theta = 10), maxIters = 0))
  }

  test("iterative sampler throws rather than truncate at maxIters") {
    // Directed path 0 → 1 → … → 9 with p = 1: the RR set of root 9 is the
    // whole path and needs 10 rounds (the last one finds nothing).
    val path = TopicEdge.fromEdges(spark,
      (0L until 9L).map(v => TopicEdge(v, v + 1, Array(1.0))))
    val pieces = Seq(Piece(Array(1.0)))
    val e = intercept[IllegalStateException](
      IterativeSampler.sample(spark, path, 10, pieces, MrrConfig(theta = 30, seed = 3L), maxIters = 4))
    assert(e.getMessage.contains("still on the frontier"), e.getMessage)
    val cfg = MrrConfig(theta = 30, seed = 3L)
    val full = rows(IterativeSampler.sample(spark, path, 10, pieces, cfg, maxIters = 12))
    assert(full == (0 until cfg.theta).flatMap { s =>
      (0L to MrrSampler.rootOf(s, 10, cfg.seed)).map(v => (s, 0, v))
    }.toSet)
    assert(full == rows(MrrSampler.sampleBroadcast(spark, path, 10, pieces, cfg)))
  }

  test("the reverse CSR lists each vertex's in-edges with per-piece probabilities") {
    val csr = ReverseCsr.collect(exampleDf, 5, ExampleGraphs.pieces :+ Piece.uniformMixture(2))
    assert(csr.nVertices == 5 && csr.sources.length == 6 && csr.numRows == 3)
    val inEdges = (0 until 5).map { v =>
      (csr.offsets(v) until csr.offsets(v + 1)).map(e => (csr.sources(e), csr.probs.map(_(e)).toSeq)).toSet
    }
    val expected = (0 until 5).map { v =>
      ExampleGraphs.edges.filter(_.dst == v).map { e =>
        (e.src.toInt, Seq(e.probs(0), e.probs(1), (e.probs(0) + e.probs(1)) / 2))
      }.toSet
    }
    assert(inEdges == expected)
  }

  test("the reverse CSR rejects sizes that do not fit Int ids") {
    intercept[IllegalArgumentException](ReverseCsr.checkSize(Int.MaxValue + 1L, 10L))
    intercept[IllegalArgumentException](ReverseCsr.checkSize(10L, Int.MaxValue + 1L))
    ReverseCsr.checkSize(Int.MaxValue, Int.MaxValue)
    intercept[IllegalArgumentException](ReverseCsr.collect(exampleDf, Int.MaxValue + 1L, ExampleGraphs.pieces))
    // endpoints must lie in [0, nVertices)
    intercept[org.apache.spark.SparkException](ReverseCsr.collect(exampleDf, 4, ExampleGraphs.pieces))
  }

  test("fragments keep exactly the promoter memberships of the broadcast rows") {
    // A live piece next to a zero-probability one: the kernel must give the
    // zero piece singleton RR sets {root} while the live piece still grows.
    val edges = SocialGraphGen.generate(spark, Datasets.mini)
    val n = Datasets.mini.nVertices
    val pieces = Seq(Piece.oneHot(1, 5), Piece(Array.fill(5)(0.0)))
    val cfg = MrrConfig(theta = 200, seed = 21L)
    val promoters = SocialGraphGen.promoters(Datasets.mini)
    val csr = spark.sparkContext.broadcast(ReverseCsr.collect(edges, n, pieces))
    val frags = try MrrSampler.sampleFragments(spark, csr, pieces.indices, cfg, promoters)
      finally csr.destroy()
    val got = frags.flatMap(f => f.candidates.zip(f.samples)).toSet
    val pool = promoters.zipWithIndex.toMap
    val expected = rows(MrrSampler.sampleBroadcast(spark, edges, n, pieces, cfg))
      .collect { case (s, j, v) if pool.contains(v) => (pool(v) * 2 + j, s) }
    assert(got == expected)
    assert(frags.map(_.candidates.length).sum == got.size, "no (candidate, sample) pair repeats")
    val zeroPiece = got.collect { case (c, s) if c % 2 == 1 => (promoters(c / 2), s) }
    assert(zeroPiece == (0 until cfg.theta).map(s => (MrrSampler.rootOf(s, n, cfg.seed), s))
      .filter(r => pool.contains(r._1)).toSet)
    assert(got.count(_._1 % 2 == 0) > zeroPiece.size, "the live piece must reach beyond its roots")
  }
}
