package k2bench

import repro.core.KHalfHop.Params
import repro.data.{GridNetwork, TrajGen}
import repro.data.TrajGen.{Config, Group}

/** One benchmark workload: a generator config built from the run's seed, the
  * query list every miner answers, and the LSM flush policy its store uses.
  *
  * Only the seed varies between runs. Object count, timestamps, world and
  * planted-group layout are fixed, so the work per run stays the same size
  * and two runs with different seeds measure the same thing.
  */
final case class Workload(
    name: String,
    config: Long => Config,
    queries: Vector[Params],
    lsmFlushThreshold: Int,
)

object Workloads {

  /** `LsmStore.create`'s own default flush threshold. */
  val DefaultFlushThreshold: Int = 128 * 1024

  /** Many long planted convoys in a dense world: pruning keeps many
    * candidates, so per-object `select` reads, HWMT, extension and
    * validation dominate and snapshot scans are a small share.
    */
  val convoyRich: Workload = Workload(
    name = "convoy-rich",
    config = seed => Config(
      nObjects = 600,
      nTs = 300,
      groups = (0 until 10).map(i => Group(3 + i % 4, (i * 23) % 80, 150 + (i * 37) % 70)),
      world = 6000.0, speed = 60.0, jitter = 6.0, dropout = 0.02, seed = seed,
    ),
    queries = Vector(Params(3, 60, 25.0), Params(5, 100, 25.0)),
    lsmFlushThreshold = DefaultFlushThreshold,
  )

  /** Brinkhoff-lite network traffic: 1,600 objects per snapshot, loaded
    * into an LSM tree whose flush policy makes the bulk load run through
    * repeated flushes and a full compaction. Few candidates survive pruning,
    * so snapshot scans weigh more than in `convoy-rich`.
    */
  val brinkhoffIngest: Workload = Workload(
    name = "brinkhoff-ingest",
    config = seed => {
      val net = new GridNetwork(cols = 24, rows = 24, spacing = 500.0)
      Config(
        nObjects = 1600,
        nTs = 200,
        groups = Seq(
          Group(5, 10, 160), Group(4, 40, 140), Group(3, 30, 120), Group(6, 60, 110),
          Group(3, 100, 90), Group(4, 20, 70), Group(3, 80, 45), Group(5, 150, 30),
        ),
        world = net.width, speed = 70.0, jitter = 6.0, dropout = 0.02, network = Some(net), seed = seed,
      )
    },
    queries = Vector(Params(3, 40, 25.0), Params(3, 80, 25.0), Params(4, 40, 20.0)),
    lsmFlushThreshold = 32 * 1024,
  )

  val all: Vector[Workload] = Vector(convoyRich, brinkhoffIngest)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
