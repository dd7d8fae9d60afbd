package repro.core.multi

import org.scalatest.funsuite.AnyFunSuite
import repro.PlanCheck
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

  test("TaskParallel's outcome and tables do not depend on threads") {
    val sc = scen(nT = 40, m = 80, nW = 800, seed = 17) // the T9 defaults
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    def bits(hs: Vector[Double]) = hs.map(java.lang.Double.doubleToLongBits) // NaN-safe
    for (priority <- Seq(true, false)) {
      val (one, oneTables) = TaskParallel.run(sc.instances, b, params, 1, priority)
      for (threads <- Seq(2, 4)) {
        val (out, tables) = TaskParallel.run(sc.instances, b, params, threads, priority)
        val at = s"threads=$threads priority=$priority"
        assert(out.executions == one.executions, at)
        assert(out.evals == one.evals, at)
        assert(out.conflicts == one.conflicts, at)
        assert(bits(tables.heartbeat) == bits(oneTables.heartbeat), at)
        assert(tables.conflicts == oneTables.conflicts, at)
        assert(tables.log == oneTables.log, at)
      }
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
    val groups = ConflictGraph.build(sc.instances)
    assert(groups.flatten.sorted == (0 until 20).toVector)
    assert(groups.forall(members => members == members.sorted), "members ascending")
    assert(groups.map(_.head) == groups.map(_.head).sorted, "groups in order of their first member")
    val groupOf = groups.zipWithIndex.flatMap { case (members, id) => members.map(_ -> id) }.toMap
    // No (worker, slot) is listed by tasks of two groups.
    val listedBy = for (i <- sc.instances.indices; j <- 0 until sc.instances(i).m;
                        w <- sc.instances(i).slots(j).workers) yield ((w, j), groupOf(i))
    listedBy.groupBy(_._1).foreach { case (key, gs) =>
      assert(gs.map(_._2).distinct.size == 1, s"$key listed by two groups")
    }
  }

  /** Tasks 0 .. n-1 of `m` slots at one place; slot j of task i lists
    * `workers(i)(j)` at cost 0.1 each.
    */
  private def listing(m: Int, workers: Seq[Int => Seq[Int]]): Vector[TaskInstance] =
    workers.toVector.zipWithIndex.map { case (ws, i) =>
      TaskInstance(Task(i, 0.5, 0.5, m), Array.tabulate(m) { j =>
        SlotCandidates(ws(j).toArray, Array.fill(ws(j).size)(0.1))
      })
    }

  test("conflict graph: far-apart tasks are independent") {
    // Disjoint candidate lists: no worker is listed by both tasks.
    assert(ConflictGraph.build(listing(4, Seq(_ => Seq(0, 1), _ => Seq(2, 3)))).size == 2)
    // One worker listed by both tasks, but never at the same slot.
    val g = ConflictGraph.build(listing(4,
      Seq(j => Seq(if (j == 0) 0 else 10 + j), j => Seq(if (j == 1) 0 else 20 + j))))
    assert(g == Vector(Vector(0), Vector(1)))
  }

  test("conflict graph: tasks sharing their nearest worker conflict") {
    // Shared candidate lists: both tasks list worker 0 at every slot.
    assert(ConflictGraph.build(listing(4, Seq(_ => Seq(0), _ => Seq(0)))).size == 1)
    // Tasks 0 and 2 share nothing but are joined through task 1.
    val g = ConflictGraph.build(listing(3,
      Seq(j => Seq(j), j => Seq(j, 10 + j), j => Seq(10 + j), _ => Seq(99))))
    assert(g == Vector(Vector(0, 1, 2), Vector(3)))
  }

  test("group-level parallel: budget shares sum to the global budget") {
    val sc = scen(nT = 16)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val g = GroupParallel.run(sc.instances, b, params)
    assert(g.totalCost <= b + 1e-9)
    assert(g.perTask.size == 16)
  }

  test("group-level parallel matches per-group serial runs") {
    val insts = MultiAssignSpec.blocked(scen(nT = 12, seed = 91), blocks = 3).instances
    val b = TcscGen.budgetFor(insts, 0.25)
    val groups = ConflictGraph.build(insts)
    assert(groups == Vector.tabulate(3)(c => (c until 12 by 3).toVector))
    val g = GroupParallel.run(insts, b, params)
    assert(PlanCheck.check(insts, PlanCheck.Plan.of(insts, g, b), params.k) == Vector.empty)
    // Reproduce each group's run in isolation and compare per-task results.
    groups.foreach { members =>
      val share = b * members.size / insts.size
      val (solo, _) = TaskParallel.run(members.map(insts(_)), share, params, 1)
      members.zip(solo.perTask).foreach { case (tid, r) =>
        assert(g.perTask(tid).executedSlots == r.executedSlots,
          s"task $tid differs")
      }
    }
  }

  test("group-level parallel at the T9 defaults books no (worker, slot) twice") {
    // T9 defaults: |T| = 40, m = 80, |W| = 800, uniform, seed 17, 25 % budget.
    val sc = TcscGen.scenario(40, 80, 800, TcscGen.Uniform, seed = 17)
    val b = TcscGen.budgetFor(sc.instances, 0.25)
    val g = GroupParallel.run(sc.instances, b, params)
    assert(g.executions.nonEmpty)
    val problems = PlanCheck.check(sc.instances, PlanCheck.Plan.of(sc.instances, g, b), params.k)
    assert(problems == Vector.empty)
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
    val rand = RandomBaseline.multi(sc.instances, b, params, seed = 5)
    val greedy = SerialMulti.basic(sc.instances, b, params)
    assert(rand.totalCost <= b + 1e-9)
    assert(rand.qSum <= greedy.qSum + 1e-9)
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
  }

  test("Ledger: cheapest free worker, bumps, +inf when taken, spend and commits") {
    // Tasks 0 and 1 list workers 10, 11 at slot 0; task 2 lists 11 only.
    // Worker 10 costs 1, worker 11 costs 2.
    val insts = Vector(Seq(10, 11), Seq(10, 11), Seq(11)).zipWithIndex.map { case (ws, i) =>
      TaskInstance(Task(i, 0.5, 0.5, 1), Array(SlotCandidates(ws.toArray, ws.map(w => (w - 9).toDouble).toArray)))
    }
    val l = new Ledger(insts, budget = 10.0)
    assert(l.cost(0, 0) == 1.0 && l.freeRank(0, 0) == 0)
    val bumps = Vector.newBuilder[(Int, Int)]
    val e0 = l.book(0, 0, (o, r) => bumps += ((o, r)))
    assert(e0 == Execution(0, 0, 10, 1.0))
    assert(bumps.result() == Vector((1, 0)), "task 1 loses worker 10 at rank 0; task 2 never listed it")
    assert(l.cost(1, 0) == 2.0 && l.freeRank(1, 0) == 1)
    assert(l.book(1, 0) == Execution(1, 0, 11, 2.0))
    assert(l.cost(2, 0) == Double.PositiveInfinity && l.freeRank(2, 0) == -1)
    assert(!l.affordable(2, 0))
    assert(!new Ledger(insts, budget = 0.5).affordable(0, 0), "over the budget")
    assert(l.spent == 3.0 && l.commits == 2)
    val out = l.outcome(evals = 0L)((_, slots) => slots.size.toDouble)
    assert(out.executions == Vector(e0, Execution(1, 0, 11, 2.0)))
    assert(out.perTask == Vector(AssignmentResult(Vector(0), 1.0, 1.0), AssignmentResult(Vector(0), 2.0, 1.0),
      AssignmentResult(Vector.empty, 0.0, 0.0)), "per-task results read off the executions")
    assert(out.commits == 2 && out.conflicts == 2, "booking 11 also bumped task 2")
  }

  test("Ledger rejects two instances that share a task id") {
    // Per-task results are read off the executions by task id, so two
    // instances of one task would both be given the slots booked for either.
    val inst = scen(nT = 1).instances.head
    val twice = Vector(inst, inst.copy(task = inst.task.copy(x = 0.0)))
    intercept[IllegalArgumentException](new Ledger(twice, budget = 10.0))
    intercept[IllegalArgumentException](RandomBaseline.multi(twice, 10.0, params, seed = 5))
  }
}

object MultiAssignSpec {
  /** `sc` with each worker id split into `blocks` disjoint ids, one per task
    * class i mod `blocks`, so tasks of different classes never share a
    * (worker, slot).
    */
  def blocked(sc: TcscGen.Scenario, blocks: Int): TcscGen.Scenario =
    sc.copy(instances = sc.instances.zipWithIndex.map { case (inst, i) =>
      inst.copy(slots = inst.slots.map(s => s.copy(workers = s.workers.map(_ * blocks + i % blocks))))
    })
}
