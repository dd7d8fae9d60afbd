package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.multi.{GroupParallel, MultiOutcome, SerialMulti, TaskParallel}
import repro.core.st.SpatioTemporal
import repro.data.TcscGen

/** Every assignment path on every degenerate input. Each run must not
  * throw, must spend within its budget, must execute only with a slot's
  * listed candidate at its listed cost, and must report qualities equal to a
  * from-scratch recomputation: `Quality.qualityOf` per task, or
  * `SpatioTemporal.scoreUnder` for SApprox's combined metric.
  */
class DegenerateInputSpec extends AnyFunSuite {
  import DegenerateInputSpec.Run
  private val params = TcscParams()

  private type Path = (IndexedSeq[TaskInstance], Double, Seq[(Int, Double, Double)]) => Seq[Run]

  private def recomputed(insts: IndexedSeq[TaskInstance], out: MultiOutcome, budget: Double): Run = {
    assert(out.perTask.size == insts.size)
    insts.zip(out.perTask).foreach { case (inst, r) =>
      assert(out.executions.filter(_.taskId == inst.task.id).map(_.slot).toSet ==
        r.executedSlots.toSet, s"task ${inst.task.id}: executions vs plan")
    }
    Run(budget, out.totalCost, out.executions, insts.zip(out.perTask).map { case (inst, r) =>
      (r.quality, Quality.qualityOf(inst.m, r.executedSlots, params.k))
    })
  }

  /** A single-task path, run on each task with the whole budget. */
  private def single(f: (TaskInstance, Double) => AssignmentResult): Path = (insts, b, _) =>
    insts.map { inst =>
      val r = f(inst, b)
      val execs = r.executedSlots.map { j =>
        Execution(inst.task.id, j, inst.slots(j).workers.headOption.getOrElse(-1), inst.cost(j))
      }
      Run(b, r.totalCost, execs, Seq((r.quality, Quality.qualityOf(inst.m, r.executedSlots, params.k))))
    }

  private def taskParallel(threads: Int): Path = (insts, b, _) => {
    val (out, tables) = TaskParallel.run(insts, b, params, threads)
    assert(tables.log.map(l => (l.task, l.slot)) ==
      out.executions.map(e => (insts.indexWhere(_.task.id == e.taskId), e.slot)))
    Seq(recomputed(insts, out, b))
  }

  private val paths: Seq[(String, Path)] = Seq(
    "Approx" -> single(GreedyNaive.run(_, _, params).result),
    "Approx*" -> single(GreedyIndexed.run(_, _, params).result),
    "TaskParallel/1" -> taskParallel(1),
    "TaskParallel/3" -> taskParallel(3),
    "GroupParallel" -> ((insts, b, wpos) =>
      Seq(recomputed(insts, GroupParallel.run(insts, wpos, b, params, threads = 2).outcome, b))),
    "basic" -> ((insts, b, _) => Seq(recomputed(insts, SerialMulti.basic(insts, b, params), b))),
    "MMQM" -> ((insts, b, _) =>
      Seq(recomputed(insts, SerialMulti.minQuality(insts, b, params, indexed = true), b))),
    "MMQM naive" -> ((insts, b, _) =>
      Seq(recomputed(insts, SerialMulti.minQuality(insts, b, params, indexed = false), b))),
    "SApprox" -> ((insts, b, _) => {
      val (res, st) = SpatioTemporal.sApprox(insts, b, params.k, 0.3, 0.7)
      val rescored = SpatioTemporal.scoreUnder(insts.map(_.task), res.executions, params.k, 0.3, 0.7)
      Seq(Run(b, res.totalCost, res.executions, Seq((st.quality, rescored))))
    }),
  )

  private def scenario(nT: Int, m: Int, nW: Int, seed: Long) =
    TcscGen.scenario(nT, m, nW, TcscGen.Uniform, seed)

  private def workerPos(sc: TcscGen.Scenario): Seq[(Int, Double, Double)] =
    sc.workerPresence.groupBy(_.workerId).toSeq.sortBy(_._1)
      .map { case (id, ws) => (id, ws.head.x, ws.head.y) }

  /** `sc`'s instances with each slot's candidate list passed through `f`. */
  private def mapSlots(sc: TcscGen.Scenario)(f: (Int, Int, SlotCandidates) => SlotCandidates) =
    sc.instances.zipWithIndex.map { case (inst, i) =>
      inst.copy(slots = inst.slots.zipWithIndex.map { case (s, j) => f(i, j, s) })
    }

  private val none = SlotCandidates(Array.empty, Array.empty)

  /** (name, instances, budget, worker positions, plans must be empty). */
  private val inputs: Seq[(String, IndexedSeq[TaskInstance], Double, Seq[(Int, Double, Double)], Boolean)] = {
    val zeroBudget = scenario(4, 12, 80, 201)
    val noWorkers = scenario(4, 16, 120, 209)
    val noWorkerInsts = mapSlots(noWorkers)((i, j, s) => if (i == 0 || j % 2 == 1) none else s)
    val smallM = scenario(3, 2, 40, 210)
    val zeroCost = scenario(3, 10, 60, 211)
    Seq(
      ("empty task list", Vector.empty, 10.0, Nil, true),
      ("zero budget", zeroBudget.instances, 0.0, workerPos(zeroBudget), true),
      ("slots with no workers", noWorkerInsts, TcscGen.budgetFor(noWorkerInsts, 0.5),
        workerPos(noWorkers), false),
      ("m < k (m = 2, k = 3)", smallM.instances, TcscGen.budgetFor(smallM.instances, 1.0),
        workerPos(smallM), false),
      ("zero-cost candidates under zero budget",
        mapSlots(zeroCost)((_, j, s) => if (j % 2 == 0) s.copy(costs = s.costs.map(_ => 0.0)) else s),
        0.0, workerPos(zeroCost), false),
    )
  }

  for ((name, insts, budget, wpos, expectEmpty) <- inputs) test(name) {
    val byId = insts.map(i => i.task.id -> i).toMap
    for ((path, run) <- paths; r <- run(insts, budget, wpos)) withClue(s"$path: ") {
      assert(r.spent <= r.budget + 1e-9)
      assert(r.executions.map(_.cost).sum <= r.budget + 1e-9)
      r.executions.foreach { e =>
        val sc = byId(e.taskId).slots(e.slot)
        val rank = sc.workers.indexOf(e.workerId)
        assert(rank >= 0 && sc.costs(rank) == e.cost, s"$e is not a listed candidate")
      }
      r.qualities.foreach { case (reported, recomputedQ) =>
        assert(math.abs(reported - recomputedQ) < 1e-9)
      }
      if (expectEmpty) {
        assert(r.executions.isEmpty && r.spent == 0.0)
        assert(r.qualities.forall(_._1 == 0.0))
      }
    }
  }
}

object DegenerateInputSpec {
  /** One run: what it spent and executed, and (reported, recomputed)
    * qualities.
    */
  final case class Run(budget: Double, spent: Double, executions: Seq[Execution],
                       qualities: Seq[(Double, Double)])
}
