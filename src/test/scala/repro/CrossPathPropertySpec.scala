package repro

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.core.{DegenerateInputSpec, TcscParams}
import repro.core.multi.{ConflictGraph, GroupParallel, MultiAssignSpec}
import repro.core.st.SpatioTemporal
import repro.data.TcscGen
import repro.spark.AssignPipeline

/** Fixed-seed randomised checks of SApprox and the Spark assignment job on
  * small scenarios: |T| 1–8, m 1–16, k 1–4 (k > m included), `maxRank`
  * 0, 1 and 12, budgets from 0 to a full assignment, listed, equal and zero
  * costs, and 3-group scenarios whose task classes share no worker.
  */
class CrossPathPropertySpec extends SparkSpec {

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

  test("property: SApprox plans pass PlanCheck and the Spark job plans as GroupParallel") {
    var covered = Set.empty[String]
    val prop = Prop.forAllNoShrink(scenarios) { s =>
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
        val groups = GroupParallel.run(insts, b, params, threads = 2)
        assert(PlanCheck.check(insts, PlanCheck.Plan.of(insts, groups.outcome, b), s.k) == Vector.empty)
        val execs = AssignPipeline.assign(spark, s.sc, s.fraction, params).collect().toVector
        assert(execs == groups.outcome.executions, "Spark assign vs GroupParallel")
        covered += "spark"
        if (ConflictGraph.build(insts).groups.size == 3) covered += "spark, 3 groups"
      }
      if (s.k > s.m) covered += "k > m"
      if (s.fraction == 0.0 && s.costs != "zero") covered += "zero budget"
      covered += s"maxRank ${s.maxRank}"
      Prop.passed
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(40)
      .withInitialSeed(Seed(1401L)).withWorkers(1), prop)
    assert(result.passed, result.status)
    assert(covered == Set("booked", "spark", "spark, 3 groups", "k > m", "zero budget",
      "maxRank 0", "maxRank 1", "maxRank 12"), "cases the fixed seed covers")
  }
}
