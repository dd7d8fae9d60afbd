package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.multi.TaskParallel
import repro.data.TcscGen

/** `PlanCheck` accepts valid plans and rejects each kind of invalid one. */
class PlanCheckSpec extends AnyFunSuite {
  private val params = TcscParams()
  private val k = params.k

  private val sc = TcscGen.scenario(6, 20, 120, TcscGen.Uniform, seed = 4)
  private val byId = sc.instances.map(i => i.task.id -> i).toMap
  private val budget = TcscGen.budgetFor(sc.instances, 0.25)

  private val valid = {
    val (out, _) = TaskParallel.run(sc.instances, budget, params, threads = 1)
    PlanCheck.Plan.of(sc.instances, out, budget)
  }

  private def rejects(plan: PlanCheck.Plan, expect: String, rankZero: Boolean = false) = {
    val problems = PlanCheck.check(sc.instances, plan, k, rankZero)
    assert(problems.exists(_.contains(expect)), problems)
  }

  /** `valid` with its first execution replaced by `f` of it. */
  private def withFirst(f: Execution => Execution) =
    valid.copy(executions = valid.executions.updated(0, f(valid.executions.head)))

  test("a task-parallel plan is valid") {
    assert(valid.executions.nonEmpty)
    assert(PlanCheck.check(sc.instances, valid, k) == Vector.empty)
  }

  test("an Approx* single-task plan is valid at rank 0") {
    val inst = sc.instances.head
    val b = inst.fullCost * 0.25
    val r = GreedyIndexed.run(inst, b, params).result
    val plan = PlanCheck.Plan(PlanCheck.singleTaskExecutions(inst, r.executedSlots),
      Map(inst.task.id -> r.quality), b)
    assert(plan.executions.nonEmpty)
    assert(PlanCheck.check(Seq(inst), plan, k, rankZero = true) == Vector.empty)
  }

  test("two tasks booking the same (worker, slot) are rejected for double booking") {
    val one = SlotCandidates(Array(0), Array(0.1))
    val insts = Vector(TaskInstance(Task(0, 0.1, 0.1, 3), Array.fill(3)(one)),
      TaskInstance(Task(1, 0.9, 0.9, 3), Array.fill(3)(one)))
    val execs = Seq(Execution(0, 1, 0, 0.1), Execution(1, 1, 0, 0.1))
    val q = Quality.qualityOf(3, Seq(1), k)
    val problems = PlanCheck.check(insts, PlanCheck.Plan(execs, Map(0 -> q, 1 -> q), 1.0), k)
    assert(problems == Vector("double booking: worker 0 at slot 1 (task 1)"))
  }

  test("an unknown task or a slot outside the horizon is rejected") {
    rejects(withFirst(_.copy(taskId = -3)), "unknown task")
    rejects(withFirst(e => e.copy(slot = byId(e.taskId).m)), "outside")
  }

  test("a worker that is not a candidate is rejected") {
    rejects(withFirst(_.copy(workerId = -7)), "not a candidate")
  }

  test("a cost that differs from the listed one is rejected") {
    rejects(withFirst(e => e.copy(cost = e.cost * 0.5)), "cost")
  }

  test("a candidate beyond rank 0 is rejected under the single-task cost model") {
    val (e, sc0) = valid.executions.iterator.map(e => (e, byId(e.taskId).slots(e.slot)))
      .find { case (e, s) => s.workers.indexWhere(_ != e.workerId, 1) > 0 }.get
    val r = sc0.workers.indexWhere(_ != e.workerId, 1)
    val alt = e.copy(workerId = sc0.workers(r), cost = sc0.costs(r))
    rejects(valid.copy(executions = valid.executions.map(x => if (x == e) alt else x)),
      "not 0", rankZero = true)
  }

  test("a slot executed twice is rejected") {
    val e = valid.executions.head
    val s = byId(e.taskId).slots(e.slot)
    val r = s.workers.indexWhere(_ != e.workerId)
    val again = e.copy(workerId = s.workers(r), cost = s.costs(r))
    rejects(valid.copy(executions = valid.executions :+ again), "executed twice")
  }

  test("spend over the budget is rejected") {
    rejects(valid.copy(budget = valid.executions.map(_.cost).sum * 0.9), "exceeds budget")
  }

  test("a reported quality that differs from the recomputation is rejected") {
    val id = valid.executions.head.taskId
    val q = valid.reportedQuality(id)
    rejects(valid.copy(reportedQuality = valid.reportedQuality.updated(id, q + 1e-6)),
      "reported quality")
    rejects(valid.copy(reportedQuality = valid.reportedQuality - id), "no reported quality")
  }
}
