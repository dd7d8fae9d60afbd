package repro.core.multi

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TcscGen

/** Multi-task assignment: serial basic, task-level parallel (determinism
  * across thread counts and vs serial), group-level, MMQM, conflicts.
  */
class MultiAssignSpec extends AnyFunSuite {
  private val params = TcscParams()

  private def scen(nT: Int = 12, m: Int = 30, nW: Int = 250, seed: Long = 51,
                   dist: TcscGen.Dist = TcscGen.Uniform) =
    TcscGen.scenario(nT, m, nW, dist, seed)

  private def workerPos(sc: TcscGen.Scenario) =
    sc.workerPresence.groupBy(_.workerId).toSeq.sortBy(_._1)
      .map { case (id, ws) => (id, ws.head.x, ws.head.y) }

  test("basic greedy respects the global budget") {
    val sc = scen()
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val out = SerialMulti.basic(sc.instances, b, params)
    assert(out.totalCost <= b + 1e-9)
  }

  test("basic greedy: reported per-task quality equals recomputation") {
    val sc = scen()
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val out = SerialMulti.basic(sc.instances, b, params)
    out.perTask.zipWithIndex.foreach { case (r, i) =>
      val q = Quality.qualityOf(sc.instances(i).m, r.executedSlots, params.k)
      assert(math.abs(r.quality - q) < 1e-9, s"task $i")
    }
  }

  test("no worker serves two tasks in the same slot") {
    val sc = scen(nT = 15, nW = 150) // scarce workers force conflicts
    val b = TcscGen.budgetFor(sc.instances, 0.5)
    val out = SerialMulti.basic(sc.instances, b, params)
    val seen = out.executions.map(e => (e.workerId, e.slot))
    assert(seen.distinct.size == seen.size, "double-booked worker-slot")
  }

  test("task-level parallel equals serial basic for any thread count") {
    val sc = scen()
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val serial = SerialMulti.basic(sc.instances, b, params)
    for (threads <- Seq(1, 2, 4)) {
      val (par, _) = TaskParallel.run(sc.instances, b, params, threads)
      assert(par.executions == serial.executions, s"threads=$threads")
      assert(math.abs(par.qSum - serial.qSum) < 1e-12)
    }
  }

  test("task-level parallel determinism across skewed distributions") {
    for (dist <- Seq(TcscGen.Zipf, TcscGen.Poi)) {
      val sc = scen(nT = 10, nW = 120, dist = dist, seed = 77)
      val b = TcscGen.budgetFor(sc.instances, 0.25)
      val serial = SerialMulti.basic(sc.instances, b, params)
      val (par, _) = TaskParallel.run(sc.instances, b, params, threads = 3)
      assert(par.executions == serial.executions, dist.name)
    }
  }

  /** `nT` tasks of `m` slots; every candidate costs `c`, and slot j of task
    * i lists workers (i + j + r) mod `nW`, r = 0 .. 2, so neighbouring
    * tasks compete for them.
    */
  private def equalCost(nT: Int, m: Int, nW: Int, c: Double): Vector[TaskInstance] =
    Vector.tabulate(nT) { i =>
      TaskInstance(Task(i, 0.5, 0.5, m), Array.tabulate(m) { j =>
        SlotCandidates(Array.tabulate(3)(r => (i + j + r) % nW), Array.fill(3)(c))
      })
    }

  test("task-level parallel equals serial basic where many h values tie exactly") {
    // Equal costs make tasks of equal history tie; at zero cost every h goes
    // through the 1e-12 floor and only the workers limit the plan.
    for ((c, b) <- Seq((1.0, 40.0), (2.0, 30.0), (0.0, 0.0))) {
      val insts = equalCost(nT = 6, m = 24, nW = 5, c)
      val serial = SerialMulti.basic(insts, b, params)
      assert(serial.commits > 10, s"c=$c")
      for (threads <- Seq(1, 3); priority <- Seq(true, false)) {
        val (par, _) = TaskParallel.run(insts, b, params, threads, priority)
        assert(par.executions == serial.executions, s"c=$c threads=$threads priority=$priority")
        assert(par.qSum == serial.qSum)
      }
    }
  }

  test("priority off yields the identical plan (only cost differs)") {
    val sc = scen()
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val (on, _) = TaskParallel.run(sc.instances, b, params, 2, priority = true)
    val (off, _) = TaskParallel.run(sc.instances, b, params, 2, priority = false)
    assert(on.executions == off.executions)
    assert(off.evals >= on.evals, "priority should not increase evaluations")
  }

  test("parallel tables: log matches commits, conflicts recorded") {
    val sc = scen(nT = 15, nW = 120) // scarce => conflicts
    val b = TcscGen.budgetFor(sc.instances, 0.5)
    val (out, tables) = TaskParallel.run(sc.instances, b, params, 2)
    assert(tables.log.size == out.commits)
    assert(tables.log.map(_.spentAfter).toSeq == tables.log.map(_.spentAfter).sorted)
    assert(out.conflicts == tables.conflicts.size)
    tables.conflicts.foreach { c =>
      assert(c.tasks.size == 2 && c.nextRank >= 2)
    }
  }

  test("heartbeat values are recorded for committing tasks") {
    val sc = scen()
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val (out, tables) = TaskParallel.run(sc.instances, b, params, 2)
    val committed = out.executions.map(_.taskId).toSet
    committed.foreach(t => assert(!tables.heartbeat(t).isNaN, s"task $t"))
  }

  test("conflict graph: groups partition the tasks") {
    val sc = scen(nT = 20, nW = 200)
    val g = ConflictGraph.build(sc.instances, workerPos(sc))
    assert(g.groupOf.length == 20)
    assert(g.groups.flatten.sorted == (0 until 20).toVector)
    g.edges.foreach { case (a, b2) =>
      assert(g.groupOf(a) == g.groupOf(b2), s"edge ($a,$b2) crosses groups")
    }
  }

  test("conflict graph: far-apart tasks are independent") {
    // Two tasks in opposite corners with dedicated nearby workers.
    val tasks = Vector(Task(0, 0.05, 0.05, 4), Task(1, 0.95, 0.95, 4))
    val wpos = Seq((0, 0.06, 0.06), (1, 0.94, 0.94))
    val insts = tasks.map { t =>
      TaskInstance(t, Array.fill(4)(SlotCandidates(Array(0, 1), Array(0.1, 1.2))))
    }
    val g = ConflictGraph.build(insts, wpos)
    assert(g.groups.size == 2)
  }

  test("conflict graph: tasks sharing their nearest worker conflict") {
    val tasks = Vector(Task(0, 0.49, 0.5, 4), Task(1, 0.51, 0.5, 4))
    val wpos = Seq((0, 0.5, 0.5), (1, 0.9, 0.9), (2, 0.1, 0.1))
    val insts = tasks.map { t =>
      TaskInstance(t, Array.fill(4)(SlotCandidates(Array(0), Array(0.01))))
    }
    val g = ConflictGraph.build(insts, wpos)
    assert(g.groups.size == 1 && g.edges.contains((0, 1)))
  }

  test("group-level parallel: budget shares sum to the global budget") {
    val sc = scen(nT = 16)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val g = GroupParallel.run(sc.instances, workerPos(sc), b, params, threads = 3)
    assert(g.outcome.totalCost <= b + 1e-9)
    assert(g.groups >= 1 && g.largestGroup <= 16)
  }

  test("group-level parallel matches per-group serial runs") {
    val sc = scen(nT = 12, seed = 91)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val graph = ConflictGraph.build(sc.instances, workerPos(sc))
    val g = GroupParallel.run(sc.instances, workerPos(sc), b, params, threads = 4)
    // Reproduce each group's run in isolation and compare per-task results.
    graph.groups.foreach { members =>
      val share = b * members.size / sc.instances.size
      val (solo, _) = TaskParallel.run(members.map(sc.instances(_)), share, params, 1)
      members.zip(solo.perTask).foreach { case (tid, r) =>
        assert(g.outcome.perTask(tid).executedSlots == r.executedSlots,
          s"task $tid differs")
      }
    }
  }

  test("MMQM: indexed and naive variants produce identical plans") {
    val sc = scen(nT = 8, m = 24, seed = 61)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val naive = SerialMulti.minQuality(sc.instances, b, params, indexed = false)
    val star = SerialMulti.minQuality(sc.instances, b, params, indexed = true)
    assert(naive.executions == star.executions)
    assert(math.abs(naive.qMin - star.qMin) < 1e-12)
  }

  test("MMQM budget respected and min quality not above mean") {
    val sc = scen(nT = 10)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val out = SerialMulti.minQuality(sc.instances, b, params)
    assert(out.totalCost <= b + 1e-9)
    assert(out.qMin <= out.qSum / 10 + 1e-9)
  }

  test("MMQM lifts the weakest task vs MSQM when budget is scarce") {
    val sc = scen(nT = 10, nW = 150, seed = 71)
    val b = TcscGen.budgetFor(sc.instances, 0.125)
    val msqm = SerialMulti.basic(sc.instances, b, params)
    val mmqm = SerialMulti.minQuality(sc.instances, b, params)
    assert(mmqm.qMin >= msqm.qMin - 1e-9,
      s"MMQM qMin ${mmqm.qMin} < MSQM qMin ${msqm.qMin}")
  }

  test("Rand multi respects budget and is below greedy q_sum") {
    val sc = scen()
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val (_, rSum, _) = RandomBaseline.multi(sc.instances, b, params, seed = 5)
    val greedy = SerialMulti.basic(sc.instances, b, params)
    assert(rSum <= greedy.qSum + 1e-9)
  }

  test("WorkerPool: atomic take semantics") {
    val p = new WorkerPool
    assert(p.tryTake(3, 7))
    assert(!p.tryTake(3, 7))
    assert(p.tryTake(3, 8)) // same worker, different slot is fine
    assert(p.isTaken(3, 7) && !p.isTaken(4, 7))
    assert(p.takenCount == 2)
  }

  test("WorkerPool: freeRank walks past taken candidates") {
    val p = new WorkerPool
    val sc = SlotCandidates(Array(10, 11, 12), Array(0.1, 0.2, 0.3))
    assert(p.freeRank(sc, 0) == 0)
    p.tryTake(10, 0)
    assert(p.freeRank(sc, 0) == 1)
    p.tryTake(11, 0); p.tryTake(12, 0)
    assert(p.freeRank(sc, 0) == -1)
    assert(p.rankOf(sc, 11) == 1 && p.rankOf(sc, 99) == -1)
  }
}
