package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PlanCheck
import repro.core.multi.{GroupParallel, MultiOutcome, SerialMulti, TaskParallel}
import repro.core.st.SpatioTemporal
import repro.data.TcscGen

/** Every assignment path on every degenerate input. Each run must not throw
  * and its plan must pass `PlanCheck`: no (worker, slot) booked twice, only
  * listed candidates at their listed costs, spend within budget, reported
  * qualities equal to a from-scratch recomputation. SApprox reports the
  * combined quality, which must equal `SpatioTemporal.scoreUnder`.
  */
class DegenerateInputSpec extends AnyFunSuite {
  import DegenerateInputSpec.Run
  private val params = TcscParams()

  private type Path = (IndexedSeq[TaskInstance], Double) => Seq[Run]

  /** A single-task path, run on each task with the whole budget. */
  private def single(f: (TaskInstance, Double) => AssignmentResult): Path = (insts, b) =>
    insts.map { inst =>
      val r = f(inst, b)
      Run(Seq(inst), PlanCheck.Plan(PlanCheck.singleTaskExecutions(inst, r.executedSlots),
        Map(inst.task.id -> r.quality), b), r.totalCost, rankZero = true)
    }

  private def multiTask(f: (IndexedSeq[TaskInstance], Double) => MultiOutcome): Path = (insts, b) => {
    val out = f(insts, b)
    // PlanCheck reads the executions; each task's reported slots must match them.
    assert(out.perTask.size == insts.size)
    insts.zip(out.perTask).foreach { case (inst, r) =>
      assert(out.executions.filter(_.taskId == inst.task.id).map(_.slot).toSet ==
        r.executedSlots.toSet, s"task ${inst.task.id}: executions vs plan")
    }
    Seq(Run(insts, PlanCheck.Plan.of(insts, out, b), out.totalCost))
  }

  private def taskParallel(threads: Int): Path = multiTask { (insts, b) =>
    val (out, tables) = TaskParallel.run(insts, b, params, threads)
    assert(tables.log.map(l => (l.task, l.slot)) ==
      out.executions.map(e => (insts.indexWhere(_.task.id == e.taskId), e.slot)))
    out
  }

  private val paths: Seq[(String, Path)] = Seq(
    "Approx" -> single(GreedyNaive.run(_, _, params).result),
    "Approx*" -> single(GreedyIndexed.run(_, _, params).result),
    "OPT" -> single(ExactOpt.run(_, _, params)),
    "Rand" -> single(RandomBaseline.run(_, _, params, seed = 5)),
    "TaskParallel/1" -> taskParallel(1),
    "TaskParallel/3" -> taskParallel(3),
    "GroupParallel" -> multiTask(GroupParallel.run(_, _, params)),
    "basic" -> multiTask(SerialMulti.basic(_, _, params)),
    "MMQM" -> multiTask(SerialMulti.minQuality(_, _, params, indexed = true)),
    "MMQM naive" -> multiTask(SerialMulti.minQuality(_, _, params, indexed = false)),
    "Rand multi" -> multiTask(RandomBaseline.multi(_, _, params, seed = 5)),
    "SApprox" -> ((insts, b) => {
      val (out, st) = SpatioTemporal.sApprox(insts, b, params.k, 0.3, 0.7)
      val scored = SpatioTemporal.scoreUnder(insts.map(_.task), out.executions, params.k, 0.3, 0.7)
      assert(math.abs(st.quality - scored) < 1e-9 && math.abs(out.qSum - scored) < 1e-9)
      Seq(Run(insts, DegenerateInputSpec.basePlan(insts, out, b, params.k), out.totalCost))
    }),
  )

  private def scenario(nT: Int, m: Int, nW: Int, seed: Long) =
    TcscGen.scenario(nT, m, nW, TcscGen.Uniform, seed).instances

  /** `insts` with each slot's candidate list passed through `f`. */
  private def mapSlots(insts: Vector[TaskInstance])(f: (Int, Int, SlotCandidates) => SlotCandidates) =
    insts.zipWithIndex.map { case (inst, i) =>
      inst.copy(slots = inst.slots.zipWithIndex.map { case (s, j) => f(i, j, s) })
    }

  private val none = SlotCandidates(Array.empty, Array.empty)

  /** Three tasks in far-apart corners whose every slot lists the same single
    * worker, so every pair of tasks competes for each (worker, slot).
    */
  private val allConflicting = Vector((0.05, 0.05), (0.95, 0.95), (0.05, 0.95)).zipWithIndex.map {
    case ((x, y), i) => TaskInstance(Task(i, x, y, 6), Array.fill(6)(SlotCandidates(Array(0), Array(0.1))))
  }

  /** Even slots list their workers at cost 0, odd slots at their distances. */
  private val zeroCostEven =
    mapSlots(scenario(3, 10, 60, 211))((_, j, s) => if (j % 2 == 0) s.copy(costs = s.costs.map(_ => 0.0)) else s)

  /** (name, instances, budget, plans must be empty). */
  private val inputs: Seq[(String, IndexedSeq[TaskInstance], Double, Boolean)] = {
    val noWorkers = mapSlots(scenario(4, 16, 120, 209))((i, j, s) => if (i == 0 || j % 2 == 1) none else s)
    val smallM = scenario(3, 2, 40, 210)
    Seq(
      ("empty task list", Vector.empty, 10.0, true),
      ("zero budget", scenario(4, 12, 80, 201), 0.0, true),
      ("slots with no workers", noWorkers, TcscGen.budgetFor(noWorkers, 0.5), false),
      ("m < k (m = 2, k = 3)", smallM, TcscGen.budgetFor(smallM, 1.0), false),
      ("zero-cost candidates under zero budget", zeroCostEven, 0.0, false),
      ("all-conflicting tasks (one worker listed by every slot)", allConflicting, 10.0, false),
    )
  }

  test("Rand multi books every zero-cost subtask under zero budget") {
    // The draws go on while a pick is left, not only while budget is left.
    val evenSlots = for (inst <- zeroCostEven; j <- 0 until inst.m by 2) yield (inst.task.id, j)
    for (seed <- 1L to 5L) {
      val out = RandomBaseline.multi(zeroCostEven, 0.0, params, seed)
      assert(out.executions.map(e => (e.taskId, e.slot)).sorted == evenSlots, s"seed $seed")
    }
  }

  test("multi-task OPT passes PlanCheck on T11's tiny instance and on all-conflicting tasks") {
    val tiny = scenario(2, 6, 60, 19)
    val cases = Seq(0.125, 0.25, 0.5).map(f => (s"T11 tiny at $f", tiny, TcscGen.budgetFor(tiny, f))) :+
      (("all-conflicting tasks", allConflicting, 10.0))
    for ((name, insts, b) <- cases) withClue(s"$name: ") {
      val tasks = insts.map(_.task)
      val (q, execs) = ExactOpt.best(insts, b)(SpatioTemporal.scoreUnder(tasks, _, params.k, 0.3, 0.7))
      val reported = insts.map(i =>
        i.task.id -> Quality.qualityOf(i.m, execs.filter(_.taskId == i.task.id).map(_.slot), params.k)).toMap
      assert(execs.nonEmpty && q == SpatioTemporal.scoreUnder(tasks, execs, params.k, 0.3, 0.7))
      assert(PlanCheck.check(insts, PlanCheck.Plan(execs, reported, b), params.k) == Vector.empty)
    }
  }

  for ((name, insts, budget, expectEmpty) <- inputs) test(name) {
    for ((path, run) <- paths; r <- run(insts, budget)) withClue(s"$path: ") {
      assert(PlanCheck.check(r.instances, r.plan, params.k, r.rankZero) == Vector.empty)
      assert(r.spent <= budget + 1e-9)
      if (expectEmpty) {
        assert(r.plan.executions.isEmpty && r.spent == 0.0)
        assert(r.plan.reportedQuality.values.forall(_ == 0.0))
      }
    }
  }
}

object DegenerateInputSpec {
  /** One run: the tasks it planned, its plan, the spend it reported and
    * whether it books at rank 0 only (the single-task cost model).
    */
  final case class Run(instances: Seq[TaskInstance], plan: PlanCheck.Plan, spent: Double,
                       rankZero: Boolean = false)

  /** SApprox's outcome as a plan whose reported qualities are each task's
    * base quality (Eq 1) of the slots `out.perTask` lists. SApprox reports
    * each task's share of the combined metric instead, which `PlanCheck`
    * does not recompute; this way it still checks the bookings, candidates
    * and spend, and that each task's slots are its executions.
    */
  def basePlan(instances: Seq[TaskInstance], out: MultiOutcome, budget: Double, k: Int): PlanCheck.Plan =
    PlanCheck.Plan(out.executions, instances.iterator.zip(out.perTask).map { case (i, r) =>
      i.task.id -> Quality.qualityOf(i.m, r.executedSlots, k)
    }.toMap, budget)
}
