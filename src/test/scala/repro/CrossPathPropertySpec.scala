package repro

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.core.{DegenerateInputSpec, GreedyIndexed, GreedyNaive, Quality, RandomBaseline, TcscParams}
import repro.core.multi.{ConflictGraph, GroupParallel, MultiAssignSpec, MultiOutcome, SerialMulti, TaskParallel}
import repro.core.st.SpatioTemporal
import repro.data.TcscGen
import repro.spark.AssignPipeline

/** Fixed-seed randomised checks of every assignment path on small
  * scenarios: |T| 1–8, m 1–16, k 1–4 (k > m included), `maxRank` 0, 1 and
  * 12, budgets from 0 to a full assignment, listed, equal and zero costs,
  * and 3-group scenarios whose task classes share no worker. Both
  * properties draw the same 40 cases from seed 1401.
  */
class CrossPathPropertySpec extends SparkSpec {
  import CrossPathPropertySpec.Case

  private val scenarios = for {
    nT <- Gen.choose(1, 8)
    m <- Gen.frequency(1 -> Gen.choose(1, 3), 3 -> Gen.choose(4, 16))
    nW <- Gen.choose(1, 60)
    k <- Gen.choose(1, 4)
    maxRank <- Gen.oneOf(0, 1, 12)
    dist <- Gen.oneOf(TcscGen.AllDists)
    seed <- Gen.choose(0L, 1L << 20)
    fraction <- Gen.oneOf(0.0, 0.125, 0.25, 0.5, 1.0)
    costs <- Gen.frequency(3 -> "listed", 1 -> "equal", 1 -> "zero")
    blocks <- Gen.frequency(2 -> 1, 1 -> 3)
    onSpark <- Gen.frequency(1 -> true, 2 -> false)
  } yield Case(nT, m, nW, k, maxRank, dist, seed, fraction, costs, blocks, onSpark)

  /** Runs `body` on the 40 cases of seed 1401; returns what they covered. */
  private def forAllCases(body: Case => Set[String]): Set[String] = {
    var covered = Set.empty[String]
    val prop = Prop.forAllNoShrink(scenarios) { s =>
      covered ++= body(s)
      if (s.k > s.m) covered += "k > m"
      if (s.fraction == 0.0 && s.costs != "zero") covered += "zero budget"
      covered += s"maxRank ${s.maxRank}"
      Prop.passed
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(40)
      .withInitialSeed(Seed(1401L)).withWorkers(1), prop)
    assert(result.passed, result.status)
    covered
  }

  private val shapes = Set("k > m", "zero budget", "maxRank 0", "maxRank 1", "maxRank 12")

  test("property: SApprox plans pass PlanCheck and the Spark job plans as GroupParallel") {
    val covered = forAllCases { s =>
      var covered = Set.empty[String]
      val insts = s.sc.instances
      val b = s.budget
      for ((ws, wt) <- Seq((0.3, 0.7), (0.0, 1.0))) withClue(s"($ws, $wt): ") {
        val (out, _) = SpatioTemporal.sApprox(insts, b, s.k, ws, wt)
        assert(PlanCheck.check(insts, DegenerateInputSpec.basePlan(insts, out, b, s.k), s.k) == Vector.empty)
        val scored = SpatioTemporal.scoreUnder(insts.map(_.task), out.executions, s.k, ws, wt)
        assert(math.abs(out.qSum - scored) < 1e-9, s"qSum ${out.qSum} != scoreUnder $scored")
        if (out.executions.nonEmpty) covered += "booked"
      }
      if (s.onSpark) {
        val params = TcscParams(k = s.k)
        val groups = GroupParallel.run(insts, b, params)
        assert(PlanCheck.check(insts, PlanCheck.Plan.of(insts, groups, b), s.k) == Vector.empty)
        val planned = AssignPipeline.assign(spark, s.sc, s.fraction, params)
        val execs = planned.collect().toVector
        assert(execs == groups.executions, "Spark assign vs GroupParallel")
        import spark.implicits._
        val q = AssignPipeline.planQualities(spark, s.sc, planned.toDF(), s.k).as[(Int, Double)].collect().toMap
        for (t <- s.sc.tasks)
          assert(q(t.id) == Quality.qualityOf(t.m, execs.filter(_.taskId == t.id).map(_.slot), s.k),
            s"planQualities of the Spark plan, task ${t.id}")
        assert(PlanCheck.check(insts, PlanCheck.Plan(execs, q, b), s.k) == Vector.empty, "Spark plan, its q")
        covered += "spark"
        if (ConflictGraph.build(insts).size == 3) covered += "spark, 3 groups"
      }
      covered
    }
    assert(covered == Set("booked", "spark", "spark, 3 groups") ++ shapes, "cases the fixed seed covers")
  }

  test("property: every core path passes PlanCheck, and equivalent paths plan alike") {
    val covered = forAllCases { s =>
      var covered = Set.empty[String]
      val insts = s.sc.instances.toIndexedSeq
      val b = s.budget
      val params = TcscParams(k = s.k)
      def valid(path: String, out: MultiOutcome): Unit =
        assert(PlanCheck.check(insts, PlanCheck.Plan.of(insts, out, b), s.k) == Vector.empty, path)

      val task = TaskParallel.run(insts, b, params)._1
      val off = TaskParallel.run(insts, b, params, priority = false)._1
      val basic = SerialMulti.basic(insts, b, params)
      val mmqm = SerialMulti.minQuality(insts, b, params, indexed = true)
      val naive = SerialMulti.minQuality(insts, b, params, indexed = false)
      val group = GroupParallel.run(insts, b, params)
      for ((path, out) <- Seq("task" -> task, "priority off" -> off, "basic" -> basic, "MMQM" -> mmqm,
             "MMQM naive" -> naive, "Rand" -> RandomBaseline.multi(insts, b, params, s.seed), "group" -> group))
        valid(path, out)
      assert(basic.executions == task.executions, "basic vs task")
      assert(off.executions == task.executions, "priority off vs on")
      assert(naive.executions == mmqm.executions, "MMQM naive vs indexed")
      val groups = ConflictGraph.build(insts)
      for (members <- groups) {
        val (solo, _) = TaskParallel.run(members.map(insts(_)), b * members.size / insts.size, params, 1)
        members.zip(solo.perTask).foreach { case (tid, r) =>
          assert(group.perTask(tid) == r, s"group: task $tid vs its group run alone")
        }
      }
      for (inst <- insts) {
        val star = GreedyIndexed.run(inst, b, params).result
        val approx = GreedyNaive.run(inst, b, params).result
        assert(star.executedSlots == approx.executedSlots && star.totalCost == approx.totalCost,
          s"Approx* vs Approx, task ${inst.task.id}")
        for ((path, r) <- Seq("Approx*" -> star, "Approx" -> approx)) {
          val plan = PlanCheck.Plan(PlanCheck.singleTaskExecutions(inst, r.executedSlots),
            Map(inst.task.id -> r.quality), b)
          assert(PlanCheck.check(Seq(inst), plan, s.k, rankZero = true) == Vector.empty, path)
        }
      }
      if (task.executions.nonEmpty) covered += "booked"
      if (groups.size == 3) covered += "3 groups"
      covered
    }
    assert(covered == Set("booked", "3 groups") ++ shapes, "cases the fixed seed covers")
  }
}

object CrossPathPropertySpec {
  final case class Case(nT: Int, m: Int, nW: Int, k: Int, maxRank: Int, dist: TcscGen.Dist,
                       seed: Long, fraction: Double, costs: String, blocks: Int, onSpark: Boolean) {
    lazy val sc: TcscGen.Scenario = {
      val base = MultiAssignSpec.blocked(TcscGen.scenario(nT, m, nW, dist, seed, maxRank), blocks)
      def cost(c: Double) = costs match { case "equal" => 0.5; case "zero" => 0.0; case _ => c }
      base.copy(instances = base.instances.map(inst =>
        inst.copy(slots = inst.slots.map(s => s.copy(costs = s.costs.map(cost))))))
    }
    def budget: Double = TcscGen.budgetFor(sc.instances, fraction)
  }
}
