package k2bench

import repro.core.{Convoy, ObjSets, Pt}
import repro.core.KHalfHop.Params
import repro.core.ObjSets.ObjSet
import repro.data.TrajGen.Config
import repro.store.TrajData

/** Checks a convoy answer against properties every correct answer has,
  * computed from the raw points alone: no DBSCAN, no store, no miner and no
  * stored output.
  *
  * Per reported convoy:
  *   - it has at least m objects and lasts at least k timestamps;
  *   - at every timestamp of its span its own objects form exactly one
  *     (m, eps)-cluster: the core points (at least m members within eps,
  *     counting themselves) are connected, and every other member lies
  *     within eps of a core point;
  *   - it cannot grow by one timestamp at either end with the same objects;
  *   - it is not a sub-convoy of another reported convoy.
  *
  * On the whole answer: every planted group with at least m members and a
  * span of at least k, whose members stay pairwise within eps over that span,
  * is a sub-convoy of some reported convoy.
  */
object Checker {

  /** A planted group as the generator laid it out: its members and the
    * closed span it travels together.
    */
  final case class Planted(objs: ObjSet, ts: Int, te: Int)

  /** The planted groups of `cfg`. The generator gives group i the next
    * `size` object ids after the groups before it.
    */
  def planted(cfg: Config): Vector[Planted] = {
    var base = 0
    cfg.groups.toVector.map { g =>
      val p = Planted(ObjSets.of(base until base + g.size), g.start, g.start + g.len - 1)
      base += g.size
      p
    }
  }

  /** Every violation found; empty when the answer passes. */
  def violations(data: TrajData, p: Params, answer: Seq[Convoy], groups: Seq[Planted]): Vector[String] = {
    val out = Vector.newBuilder[String]
    answer.foreach { c =>
      if (c.objs.length < p.m) out += s"$c has fewer than m = ${p.m} objects"
      if (c.len < p.k) out += s"$c lasts fewer than k = ${p.k} timestamps"
      (c.ts to c.te).find(t => !oneCluster(data, c.objs, t, p)).foreach { t =>
        out += s"$c: its objects are not one (m, eps)-cluster at t = $t"
      }
      if (oneCluster(data, c.objs, c.ts - 1, p)) out += s"$c can grow to t = ${c.ts - 1}"
      if (oneCluster(data, c.objs, c.te + 1, p)) out += s"$c can grow to t = ${c.te + 1}"
    }
    for {
      (a, i) <- answer.zipWithIndex
      (b, j) <- answer.zipWithIndex
      if i != j && a.isSubOf(b)
    } out += s"$a is a sub-convoy of $b"
    groups.foreach { g =>
      val len = g.te - g.ts + 1
      if (g.objs.length >= p.m && len >= p.k && (g.ts to g.te).forall(t => pairwiseWithin(data, g.objs, t, p.eps))) {
        val target = Convoy(g.objs, g.ts, g.te)
        if (!answer.exists(c => target.isSubOf(c))) out += s"planted group $target is in no reported convoy"
      }
    }
    out.result()
  }

  /** The points of `objs` at `t`, or None when one of them is missing. */
  private def members(data: TrajData, objs: ObjSet, t: Int): Option[Array[Pt]] =
    if (t < data.ts || t > data.te) None
    else {
      val pts = data.byTime(t - data.ts).filter(pt => ObjSets.contains(objs, pt.oid))
      if (pts.length == objs.length) Some(pts) else None
    }

  private def within(a: Pt, b: Pt, eps: Double): Boolean = {
    val dx = a.x - b.x; val dy = a.y - b.y
    dx * dx + dy * dy <= eps * eps
  }

  /** True iff `objs`, on their own at `t`, form exactly one (m, eps)-cluster. */
  def oneCluster(data: TrajData, objs: ObjSet, t: Int, p: Params): Boolean =
    members(data, objs, t).exists { pts =>
      val n = pts.length
      val near = Array.tabulate(n, n)((i, j) => within(pts(i), pts(j), p.eps))
      val core = Array.tabulate(n)(i => near(i).count(identity) >= p.m)
      val firstCore = core.indexOf(true)
      firstCore >= 0 && {
        val reached = new Array[Boolean](n)
        val stack = scala.collection.mutable.Stack(firstCore)
        reached(firstCore) = true
        while (stack.nonEmpty) {
          val i = stack.pop()
          for (j <- 0 until n if core(j) && !reached(j) && near(i)(j)) { reached(j) = true; stack.push(j) }
        }
        (0 until n).forall(i => if (core(i)) reached(i) else (0 until n).exists(j => core(j) && near(i)(j)))
      }
    }

  private def pairwiseWithin(data: TrajData, objs: ObjSet, t: Int, eps: Double): Boolean =
    members(data, objs, t).exists(pts => pts.forall(a => pts.forall(b => within(a, b, eps))))
}
