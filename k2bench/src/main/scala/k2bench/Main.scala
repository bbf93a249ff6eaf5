package k2bench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import repro.baseline.VCoDA
import repro.core.{Convoy, KHalfHop}
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.store.{FileStore, LsmStore, RdbmsStore, TrajData, TrajectoryStore}

/** Runs one workload: generates its data from the seed, builds the three
  * stores, answers the query list with every miner for `--seconds`, checks
  * every answer and prints the metrics. The last line of standard output is
  * one JSON object; with `--trace 1` it carries the per-layer metrics of a
  * separate traced pass, otherwise the end-to-end metrics.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Store files go under the directory named by `-Dk2bench.workdir`.
  */
object Main {

  /** How many times set-up is repeated; `setup_s` is the median. */
  val SetupReps = 3

  /** Untimed rounds before timing, so that JIT compilation, class loading
    * and the stores' lazy set-up are done before the first timed pass.
    */
  val WarmupRounds = 1

  /** k2-File answers a query in milliseconds, so in every round it answers
    * the list this many times, giving it as many samples per query as the
    * slower miners have time for.
    */
  val FileRepeats = 8

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  final case class Metric(name: String, value: Double, unit: String)

  private final class Stores(val dir: Path, val file: FileStore, val lsm: LsmStore, val rdbms: RdbmsStore)
      extends AutoCloseable {
    val lsmDir: Path = dir.resolve("lsm")
    def byVariant: Vector[(String, TrajectoryStore)] = Vector("file" -> file, "lsm" -> lsm, "rdbms" -> rdbms)
    override def close(): Unit = { file.close(); lsm.close(); rdbms.close() }
  }

  /** One build of every store; nanoseconds per store. */
  private final case class Build(stores: Stores, nanos: Map[String, Long])

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList) match {
      case Right(a) => a
      case Left(msg) =>
        Console.err.println(s"k2bench: $msg")
        Console.err.println("usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>")
        Console.err.println(s"workloads: ${Workloads.all.map(_.name).mkString(", ")}")
        sys.exit(2)
    }
    val root = Paths.get(sys.props.getOrElse("k2bench.workdir", ".bench_build/work"))
      .resolve(s"${args.workload.name}-${ProcessHandle.current.pid}")
    Files.createDirectories(root)
    try run(args, root)
    finally deleteTree(root)
    sys.exit(0)
  }

  private def parse(argv: List[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (kv.size * 2 != argv.length) Left(s"malformed arguments: ${argv.mkString(" ")}")
    else for {
      w <- kv.get("workload").toRight("--workload is required")
        .flatMap(n => Workloads.byName(n).toRight(s"unknown workload '$n'"))
      seed <- kv.get("seed").toRight("--seed is required").flatMap(s => s.toLongOption.toRight(s"bad seed '$s'"))
      secs <- kv.getOrElse("seconds", "10").toIntOption.filter(_ >= 1).toRight("--seconds must be a whole number >= 1")
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"--trace must be 0 or 1, not '$t'")
      }
    } yield Args(w, seed, secs, trace)
  }

  private def run(args: Args, root: Path): Unit = {
    val w = args.workload
    val cfg = w.config(args.seed)
    val data = TrajGen.generate(cfg)
    val planted = Checker.planted(cfg)
    Console.err.println(s"k2bench: ${w.name} seed=${args.seed}: ${data.totalPoints} points, " +
      s"${cfg.nObjects} objects x ${cfg.nTs} timestamps, ${w.queries.length} queries")

    // Set-up: build every store SetupReps times from the generated data and
    // keep the last build for mining.
    val builds = (0 until SetupReps).map { i =>
      val b = build(data, w, root.resolve(s"stores-$i"))
      if (i < SetupReps - 1) b.stores.close()
      b
    }
    val stores = builds.last.stores
    val lsmFiles = Files.list(stores.lsmDir).iterator().asScala.toVector
    val lsmBytes = lsmFiles.map(Files.size).sum

    // VCoDA* reads the dataset from a flat file on every query, as in the
    // paper's protocol; writing that file is data preparation, not set-up.
    val flat = root.resolve("vcoda.bin")
    FileStore.write(data, flat)

    val miners: Vector[(String, Params => Vector[Convoy])] =
      stores.byVariant.map { case (v, s) => s"k2_$v" -> ((p: Params) => KHalfHop.run(s, p)._1) } :+
        ("vcoda_star" -> ((p: Params) => {
          val s = FileStore.open(flat)
          try VCoDA.run(s, p, indexed = true).convoys
          finally s.close()
        }))
    val queries = w.queries

    // Reference answers: k2-File's, once they pass the independent checks.
    // Every other answer, in every round, must equal them.
    var correct = true
    val reference: Vector[Vector[Convoy]] = queries.map { p =>
      val ans = KHalfHop.run(stores.file, p)._1
      val bad = Checker.violations(data, p, ans, planted)
      if (bad.nonEmpty) {
        correct = false
        bad.foreach(v => Console.err.println(s"k2bench: CHECK FAILED for $p: $v"))
      }
      ans
    }

    // samples(mi)(qi): every timed answer of query qi by miner mi, in ns.
    val samples = Array.fill(miners.length, queries.length)(Vector.newBuilder[Long])
    var attempted = 0L
    var failed = 0L
    /** One round: each miner in turn answers the whole query list. A full
      * collection before each miner's pass keeps one miner's garbage from
      * being collected on the next one's time.
      */
    def round(record: Boolean): Unit = for (((name, mine), mi) <- miners.zipWithIndex) {
      System.gc()
      for (_ <- 0 until (if (name == "k2_file") FileRepeats else 1); (p, qi) <- queries.zipWithIndex) {
        val t0 = System.nanoTime()
        val ans =
          try Some(mine(p))
          catch {
            case NonFatal(e) =>
              Console.err.println(s"k2bench: $name failed on $p: $e")
              None
          }
        val nanos = System.nanoTime() - t0
        if (record) {
          samples(mi)(qi) += nanos
          attempted += 1
          if (ans.isEmpty) failed += 1
        }
        if (ans.exists(_ != reference(qi))) {
          correct = false
          Console.err.println(s"k2bench: WRONG ANSWER from $name on $p: ${ans.get.length} convoys, " +
            s"expected ${reference(qi).length}")
        }
      }
    }

    (0 until WarmupRounds).foreach(_ => round(record = false))
    val start = System.nanoTime()
    var rounds = 0
    while (rounds == 0 || System.nanoTime() - start < args.seconds * 1000000000L) {
      round(record = true)
      rounds += 1
    }
    // Each miner's time for the query list: the median answer time of each
    // query over the timed rounds, summed over the list.
    val perMiner: Map[String, Double] = miners.map(_._1).zipWithIndex.map { case (n, mi) =>
      n -> samples(mi).map(b => median(b.result().map(_.toDouble))).sum
    }.toMap
    Console.err.println(s"k2bench: $rounds timed rounds, $attempted operations")

    val setupNanos = builds.map(_.nanos.values.sum.toDouble)
    val endToEnd = Vector(
      Metric("setup_s", median(setupNanos) / 1e9, "s"),
      Metric("k2_file_s", perMiner("k2_file") / 1e9, "s"),
      Metric("k2_lsm_s", perMiner("k2_lsm") / 1e9, "s"),
      Metric("k2_rdbms_s", perMiner("k2_rdbms") / 1e9, "s"),
      Metric("vcoda_star_s", perMiner("vcoda_star") / 1e9, "s"),
      Metric("lsm_disk_mb", lsmBytes / 1e6, "MB"),
    )

    val perLayer =
      if (!args.trace) Vector.empty[Metric]
      else {
        val (layer, ok) = Traced.pass(stores.byVariant, queries, reference, flat, perMiner)
        if (!ok) correct = false
        Vector(Metric("store.lsm.sstables", lsmFiles.length.toDouble, "count")) ++
          Vector("file", "lsm", "rdbms").map(v =>
            Metric(s"store.$v.build_ms", median(builds.map(_.nanos(v).toDouble)) / 1e6, "ms")) ++
          layer
      }

    stores.close()

    (endToEnd ++ perLayer).foreach(m => println(f"metric ${m.name}%-36s ${m.value}%.6f ${m.unit}"))
    println(s"operations attempted=$attempted failed=$failed correct=$correct")
    val reported = if (args.trace) perLayer else endToEnd
    println(json(correct, attempted, failed, reported))
  }

  private def build(data: TrajData, w: Workload, dir: Path): Build = {
    Files.createDirectories(dir)
    val (file, fileNs) = timed(FileStore.create(data, dir.resolve("traj.bin")))
    val (lsm, lsmNs) = timed(LsmStore.create(data, dir.resolve("lsm"), w.lsmFlushThreshold))
    val (rdbms, rdbmsNs) = timed(RdbmsStore.create(data))
    Build(new Stores(dir, file, lsm, rdbms), Map("file" -> fileNs, "lsm" -> lsmNs, "rdbms" -> rdbmsNs))
  }

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, System.nanoTime() - t0)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def threadAllocatedBytes(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean].getCurrentThreadAllocatedBytes

  private def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String =
    metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      Files.walk(p).iterator().asScala.toVector.reverse.foreach(Files.deleteIfExists)
    }
}
