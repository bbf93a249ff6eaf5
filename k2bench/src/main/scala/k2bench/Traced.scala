package k2bench

import java.nio.file.Path

import repro.baseline.VCoDA
import repro.core.{Convoy, KHalfHop}
import repro.core.KHalfHop.Params
import repro.store.{FileStore, TrajectoryStore}

import Main.{Metric, threadAllocatedBytes, timed}

/** The traced pass: one more answer of the query list by every miner, not
  * one of the timed passes, with the stores wrapped in [[TimedStore]] and the
  * miners' own statistics collected. Each store first answers the list once
  * through an unmeasured wrapper, so that the JIT has compiled the wrapped
  * call paths before the measured answer. Layer metrics are named after the
  * repo's modules: `store.*` (repro.store), `core.*` (repro.core),
  * `vcoda.*` (repro.baseline) and `jvm.*`.
  */
private[k2bench] object Traced {

  /** Per-layer metrics, and whether every traced answer equalled the
    * checked reference.
    */
  def pass(
      variants: Vector[(String, TrajectoryStore)],
      queries: Vector[Params],
      reference: Vector[Vector[Convoy]],
      flat: Path,
      untracedMedian: Map[String, Double],
  ): (Vector[Metric], Boolean) = {
    var ok = true
    val out = Vector.newBuilder[Metric]
    var funnel: Option[Vector[Long]] = None

    for ((v, store) <- variants) {
      queries.foreach(p => KHalfHop.run(new TimedStore(store), p))
      val ts = new TimedStore(store)
      System.gc()
      val alloc0 = threadAllocatedBytes()
      val (results, nanos) = timed(queries.map(p => KHalfHop.run(ts, p)))
      val alloc = threadAllocatedBytes() - alloc0
      if (results.map(_._1) != reference) {
        ok = false
        Console.err.println(s"k2bench: WRONG ANSWER from traced k2_$v")
      }
      val stats = results.map(_._2)
      val ph = stats.map(_.phases)
      out ++= Vector(
        Metric(s"store.$v.snapshot_calls", ts.snapshotCalls.toDouble, "count"),
        Metric(s"store.$v.snapshot_points", ts.snapshotPoints.toDouble, "count"),
        Metric(s"store.$v.snapshot_ms", ts.snapshotNanos / 1e6, "ms"),
        Metric(s"store.$v.select_calls", ts.selectCalls.toDouble, "count"),
        Metric(s"store.$v.select_points", ts.selectPoints.toDouble, "count"),
        Metric(s"store.$v.select_ms", ts.selectNanos / 1e6, "ms"),
        Metric(s"core.$v.run_ms", nanos / 1e6, "ms"),
        Metric(s"core.$v.algo_ms", (nanos - ts.storeNanos) / 1e6, "ms"),
        Metric(s"core.$v.phase.benchmark_ms", ph.map(_.benchmarkMs).sum.toDouble, "ms"),
        Metric(s"core.$v.phase.hwmt_ms", ph.map(_.hwmtMs).sum.toDouble, "ms"),
        Metric(s"core.$v.phase.extend_ms", ph.map(x => x.extendRightMs + x.extendLeftMs).sum.toDouble, "ms"),
        Metric(s"core.$v.phase.validate_ms", ph.map(_.validateMs).sum.toDouble, "ms"),
        Metric(s"jvm.$v.alloc_mb", alloc / 1e6, "MB"),
        Metric(s"trace.$v.overhead_ms", (nanos - untracedMedian(s"k2_$v")) / 1e6, "ms"),
      )
      if (v == "rdbms") out ++= Vector(
        Metric("store.rdbms.select_rows", ts.selectRows.toDouble, "count"),
        Metric("store.rdbms.select_useful",
          if (ts.selectRows == 0) 1.0 else ts.selectPoints.toDouble / ts.selectRows, "ratio"),
      )
      // The funnel depends only on the data and the query, so every store
      // must report the same one.
      val f = Vector(
        stats.map(_.pointsProcessed).sum,
        stats.map(_.benchmarkClusters.toLong).sum,
        stats.map(_.candidateClusters.toLong).sum,
        stats.map(_.spanningConvoys.toLong).sum,
        stats.map(_.maximalSpanning.toLong).sum,
        stats.map(_.preValidationConvoys.toLong).sum,
        stats.map(_.convoys.toLong).sum,
      )
      if (funnel.exists(_ != f)) {
        ok = false
        Console.err.println(s"k2bench: k2_$v reports another candidate funnel: $f, not ${funnel.get}")
      }
      funnel = Some(f)
    }
    funnel.foreach { f =>
      out ++= Vector("points_clustered", "benchmark_clusters", "candidate_clusters", "spanning_convoys",
        "maximal_spanning", "pre_validation", "convoys").zip(f).map { case (n, x) =>
        Metric(s"core.$n", x.toDouble, "count")
      }
    }

    // VCoDA*: the flat-file load (timed here) and the miner's own phase times.
    System.gc()
    val alloc0 = threadAllocatedBytes()
    var loadNanos = 0L
    val results = queries.map { p =>
      val (s, ns) = timed(FileStore.open(flat))
      loadNanos += ns
      try VCoDA.run(s, p, indexed = true)
      finally s.close()
    }
    val vAlloc = threadAllocatedBytes() - alloc0
    if (results.map(_.convoys) != reference) {
      ok = false
      Console.err.println("k2bench: WRONG ANSWER from traced vcoda_star")
    }
    out ++= Vector(
      Metric("vcoda.load_ms", loadNanos / 1e6, "ms"),
      Metric("vcoda.cluster_ms", results.map(_.clusterMs).sum.toDouble, "ms"),
      Metric("vcoda.pccd_ms", results.map(_.mineMs).sum.toDouble, "ms"),
      Metric("vcoda.validate_ms", results.map(_.validateMs).sum.toDouble, "ms"),
      Metric("vcoda.pre_validation", results.map(_.preValidationConvoys.toLong).sum.toDouble, "count"),
      Metric("jvm.vcoda.alloc_mb", vAlloc / 1e6, "MB"),
    )
    (out.result(), ok)
  }
}
