package tcscbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.multi.{GroupParallel, MultiOutcome, TaskParallel}
import repro.data.TcscGen

class PlanCheckSpec extends AnyFunSuite {
  private val params = TcscParams()
  private val k = params.k

  // T9 defaults: |T| = 40, m = 80, |W| = 800, uniform, seed 17, 25 % budget.
  private lazy val t9 = TcscGen.scenario(40, 80, 800, TcscGen.Uniform, seed = 17)
  private lazy val t9Budget = TcscGen.budgetFor(t9.instances, 0.25)

  private def planOf(out: MultiOutcome, insts: Seq[TaskInstance], budget: Double) =
    PlanCheck.Plan(out.executions,
      insts.indices.map(i => insts(i).task.id -> out.perTask(i).quality).toMap, budget)

  private lazy val validMulti = {
    val (out, _) = TaskParallel.run(t9.instances, t9Budget, params, threads = 2)
    planOf(out, t9.instances, t9Budget)
  }

  test("a task-parallel plan at the T9 defaults is valid") {
    assert(validMulti.executions.nonEmpty)
    assert(PlanCheck.check(t9.instances, validMulti, k) == Vector.empty)
  }

  test("a group-parallel plan at the T9 defaults is rejected for double booking") {
    val workerPos = t9.workerPresence.groupBy(_.workerId).toSeq.sortBy(_._1)
      .map { case (id, ws) => (id, ws.head.x, ws.head.y) }
    val g = GroupParallel.run(t9.instances, workerPos, t9Budget, params, threads = 4)
    val problems = PlanCheck.check(t9.instances, planOf(g.outcome, t9.instances, t9Budget), k)
    assert(problems.exists(_.startsWith("double booking")), problems)
  }

  test("an Approx* single-task plan is valid at rank 0") {
    val inst = TcscGen.scenario(1, 200, 400, TcscGen.Uniform, seed = 3).instances.head
    val budget = inst.fullCost * 0.25
    val r = GreedyIndexed.run(inst, budget, params).result
    val plan = PlanCheck.Plan(PlanCheck.singleTaskExecutions(inst, r.executedSlots),
      Map(inst.task.id -> r.quality), budget)
    assert(PlanCheck.check(Seq(inst), plan, k, rankZero = true) == Vector.empty)
  }

  private def rejects(plan: PlanCheck.Plan, expect: String, rankZero: Boolean = false) = {
    val problems = PlanCheck.check(t9.instances, plan, k, rankZero)
    assert(problems.exists(_.contains(expect)), problems)
  }

  /** First execution whose slot lists a candidate beyond rank 0. */
  private def withAlternative: (Execution, SlotCandidates) = validMulti.executions.iterator
    .map(e => (e, t9.instances(e.taskId).slots(e.slot)))
    .find { case (e, sc) => sc.workers.length > 1 && sc.workers.count(_ != e.workerId) > 0 }.get

  test("a worker that is not a candidate is rejected") {
    val e = validMulti.executions.head
    val bad = validMulti.executions.updated(0, e.copy(workerId = -7))
    rejects(validMulti.copy(executions = bad), "not a candidate")
  }

  test("a cost that differs from the listed one is rejected") {
    val e = validMulti.executions.head
    val bad = validMulti.executions.updated(0, e.copy(cost = e.cost * 0.5))
    rejects(validMulti.copy(executions = bad), "cost")
  }

  test("a candidate beyond rank 0 is rejected under the single-task cost model") {
    val (e, sc) = withAlternative
    val r = sc.workers.indexWhere(_ != e.workerId, 1)
    val alt = e.copy(workerId = sc.workers(r), cost = sc.costs(r))
    val execs = validMulti.executions.map(x => if (x == e) alt else x)
    rejects(validMulti.copy(executions = execs), "not 0", rankZero = true)
  }

  test("a slot executed twice is rejected") {
    val e = validMulti.executions.head
    val sc = t9.instances(e.taskId).slots(e.slot)
    val r = sc.workers.indexWhere(_ != e.workerId)
    val again = e.copy(workerId = sc.workers(r), cost = sc.costs(r))
    rejects(validMulti.copy(executions = validMulti.executions :+ again), "executed twice")
  }

  test("spend over the budget is rejected") {
    rejects(validMulti.copy(budget = validMulti.budget * 0.9), "exceeds budget")
  }

  test("a reported quality that differs from the recomputation is rejected") {
    val id = validMulti.executions.head.taskId
    val q = validMulti.reportedQuality(id)
    rejects(validMulti.copy(reportedQuality = validMulti.reportedQuality.updated(id, q + 1e-6)),
      "reported quality")
    rejects(validMulti.copy(reportedQuality = validMulti.reportedQuality - id), "no reported quality")
  }

  test("self time subtracts the time covered by child spans") {
    import Tracer.Span
    val spans = Seq(
      Span(0, "round", 1, -1, 0L, 100L),
      Span(1, "data.index", 1, 0, 10L, 30L),
      Span(2, "core.assign", 1, 0, 30L, 90L),
      Span(3, "core.replay", 1, -1, 100L, 150L))
    assert(Tracer.selfNanos(spans) == Map(0 -> 20L, 1 -> 20L, 2 -> 60L, 3 -> 50L))
    val self = Tracer.roundSelfMs(spans)
    assert(self("bench") == Seq(20e-6) && self("data") == Seq(20e-6) && self("core") == Seq(60e-6))
  }
}
