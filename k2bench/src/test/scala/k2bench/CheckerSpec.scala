package k2bench

import org.scalatest.funsuite.AnyFunSuite

import repro.TestData
import repro.baseline.BruteForce
import repro.core.Convoy
import repro.core.KHalfHop.Params
import repro.data.TrajGen
import repro.data.TrajGen.{Config, Group}
import repro.store.TrajData

/** The checker must accept exact answers and reject mutated ones. Exact
  * answers come from the brute-force oracle, on the repo's random-walk
  * datasets and on small generated datasets with planted groups.
  */
class CheckerSpec extends AnyFunSuite {
  import CheckerSpec.Case

  private val randomCases: Seq[Case] = for {
    seed <- 1 to 30
    p <- Seq(Params(2, 4, TestData.GridEps), Params(3, 3, TestData.GridEps))
  } yield Case(s"randomTiny($seed) $p", TestData.randomTiny(seed), p, Vector.empty)

  private val plantedCases: Seq[Case] = (1 to 4).map { seed =>
    val cfg = Config(
      nObjects = 12, nTs = 60, groups = Seq(Group(4, 10, 30), Group(3, 35, 20)),
      world = 1500.0, speed = 20.0, jitter = 6.0, dropout = 0.02, seed = seed.toLong,
    )
    Case(s"planted seed $seed", TrajGen.generate(cfg), Params(3, 10, 25.0), Checker.planted(cfg))
  }

  private val allCases = randomCases ++ plantedCases

  /** The reported convoys that contain a planted group. */
  private def covering(c: Case, g: Checker.Planted): Vector[Convoy] =
    c.answer.filter(v => Convoy(g.objs, g.ts, g.te).isSubOf(v))

  test("accepts the brute-force answer") {
    allCases.foreach(c => assert(c.violations(c.answer).isEmpty, c.name))
    assert(allCases.map(_.answer.length).sum >= 100, "the oracle's answers should not be near empty")
  }

  test("every planted group is covered in the planted cases, so removing it can be seen") {
    plantedCases.foreach(c => c.groups.foreach(g => assert(covering(c, g).nonEmpty, s"${c.name}: $g")))
  }

  test("rejects an answer with a member dropped") {
    for (c <- randomCases; v <- c.answer if v.objs.length == c.p.m; o <- v.objs) {
      val mutated = c.answer.map(w => if (w == v) w.copy(objs = v.objs.filterNot(_ == o)) else w)
      assert(c.violations(mutated).nonEmpty, s"${c.name}: dropped $o from $v")
    }
    for (c <- plantedCases; g <- c.groups; v <- covering(c, g); o <- g.objs) {
      val mutated = c.answer.map(w => if (w == v) w.copy(objs = v.objs.filterNot(_ == o)) else w)
      assert(c.violations(mutated).nonEmpty, s"${c.name}: dropped $o from $v")
    }
  }

  test("rejects an answer with a lifespan stretched by one") {
    for (c <- allCases; v <- c.answer; stretched <- Seq(v.copy(ts = v.ts - 1), v.copy(te = v.te + 1))) {
      assert(c.violations(c.answer.map(w => if (w == v) stretched else w)).nonEmpty, s"${c.name}: $stretched")
    }
  }

  test("rejects an answer with a duplicated sub-convoy") {
    for (c <- allCases; v <- c.answer; sub <- Seq(v, v.copy(te = v.te - 1))) {
      assert(c.violations(c.answer :+ sub).nonEmpty, s"${c.name}: added $sub")
    }
  }

  test("rejects an answer with a planted group removed") {
    for (c <- plantedCases; g <- c.groups) {
      val mutated = c.answer.filterNot(covering(c, g).contains)
      assert(c.violations(mutated).nonEmpty, s"${c.name}: removed $g")
    }
  }
}

object CheckerSpec {
  private final case class Case(name: String, data: TrajData, p: Params, groups: Vector[Checker.Planted]) {
    lazy val answer: Vector[Convoy] = BruteForce.maximalFCConvoys(data, p)
    def violations(ans: Seq[Convoy]): Vector[String] = Checker.violations(data, p, ans, groups)
  }
}
