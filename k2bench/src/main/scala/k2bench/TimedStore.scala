package k2bench

import repro.core.Pt
import repro.core.ObjSets.ObjSet
import repro.store.TrajectoryStore

/** Counts calls, points returned and nanoseconds per access path of the
  * store it wraps. Used only in the traced pass.
  *
  * Points are counted here, from what each call returns, because the stores'
  * own `pointsRead` counters mean different things: `FileStore` charges the
  * whole file once when it opens, `RdbmsStore` counts every row its range
  * queries pull in, and `LsmStore` counts the points it returns. The change
  * in the wrapped store's `pointsRead` across `select` calls is kept as
  * `selectRows`, the rows the store materialised for them.
  */
final class TimedStore(inner: TrajectoryStore) extends TrajectoryStore {
  var snapshotCalls = 0L
  var snapshotPoints = 0L
  var snapshotNanos = 0L
  var selectCalls = 0L
  var selectPoints = 0L
  var selectNanos = 0L
  var selectRows = 0L

  override def ts: Int = inner.ts
  override def te: Int = inner.te
  override def totalPoints: Long = inner.totalPoints

  override def snapshot(t: Int): Array[Pt] = {
    val t0 = System.nanoTime()
    val r = inner.snapshot(t)
    snapshotNanos += System.nanoTime() - t0
    snapshotCalls += 1
    snapshotPoints += r.length
    r
  }

  override def select(t: Int, oids: ObjSet): Array[Pt] = {
    val before = inner.pointsRead
    val t0 = System.nanoTime()
    val r = inner.select(t, oids)
    selectNanos += System.nanoTime() - t0
    selectRows += inner.pointsRead - before
    selectCalls += 1
    selectPoints += r.length
    r
  }

  def storeNanos: Long = snapshotNanos + selectNanos

  override def pointsRead: Long = inner.pointsRead
  override def resetCounters(): Unit = inner.resetCounters()
}
