package repro.core

import repro.core.multi.{MultiOutcome, WorkerPool}
import scala.util.Random

/** Rand — the paper's randomized baseline: repeatedly pick a random
  * unexecuted subtask that still fits the budget and assign it to its
  * nearest worker, until no affordable subtask remains.
  */
object RandomBaseline {
  def run(inst: TaskInstance, budget: Double, params: TcscParams,
          seed: Long): AssignmentResult = {
    val m = inst.m
    val rnd = new Random(seed)
    val cost = Array.tabulate(m)(inst.cost)
    val s = new ExecutedSet(m)
    val order = Vector.newBuilder[Int]
    var spent = 0.0
    var candidates = (0 until m).filter(j => cost(j) <= budget).toBuffer
    var continue = candidates.nonEmpty
    while (continue) {
      val idx = rnd.nextInt(candidates.length)
      val t = candidates(idx)
      candidates.remove(idx)
      if (spent + cost(t) <= budget) {
        s.add(t)
        order += t
        spent += cost(t)
      }
      // Drop candidates that can no longer fit; stop when none remain.
      candidates = candidates.filter(j => spent + cost(j) <= budget)
      continue = candidates.nonEmpty
    }
    AssignmentResult(order.result(), spent, Quality.quality(s, params.k))
  }

  /** Multi-task Rand: random (task, slot) picks assigned to the cheapest
    * still-free worker until the global budget is exhausted. Each pick is
    * one commit; Rand evaluates no Δq and registers no conflicts.
    */
  def multi(instances: Seq[TaskInstance], budget: Double, params: TcscParams,
            seed: Long): MultiOutcome = {
    val t0 = System.nanoTime()
    val insts = instances.toIndexedSeq
    val rnd = new Random(seed)
    val pool = new WorkerPool
    val orders = insts.map(_ => Vector.newBuilder[Int])
    val costs = Array.fill(insts.size)(0.0)
    val execs = Vector.newBuilder[Execution]
    var spent = 0.0
    var candidates = (for (i <- insts.indices; j <- 0 until insts(i).m) yield (i, j)).toBuffer
    var continue = candidates.nonEmpty
    while (continue) {
      val idx = rnd.nextInt(candidates.length)
      val (i, j) = candidates(idx)
      candidates.remove(idx)
      val rank = pool.freeRank(insts(i).slots(j), j)
      if (rank >= 0) {
        val worker = insts(i).slots(j).workers(rank)
        val cost = insts(i).slots(j).costs(rank)
        if (spent + cost <= budget) {
          require(pool.tryTake(worker, j))
          orders(i) += j
          costs(i) += cost
          execs += Execution(insts(i).task.id, j, worker, cost)
          spent += cost
        }
      }
      continue = candidates.nonEmpty && spent < budget
    }
    val per = insts.indices.map { i =>
      val order = orders(i).result()
      AssignmentResult(order, costs(i), Quality.qualityOf(insts(i).m, order, params.k))
    }.toVector
    val ex = execs.result()
    MultiOutcome(per, ex, spent, per.map(_.quality).sum,
      if (per.isEmpty) 0.0 else per.map(_.quality).min,
      commits = ex.size, evals = 0L, conflicts = 0L, wallNanos = System.nanoTime() - t0)
  }

  /** Mean quality over `runs` seeds — the paper averages 20 runs. */
  def meanQuality(inst: TaskInstance, budget: Double, params: TcscParams,
                  runs: Int = 20, seed0: Long = 42L): Double = {
    var sum = 0.0
    var i = 0
    while (i < runs) { sum += run(inst, budget, params, seed0 + i).quality; i += 1 }
    sum / runs
  }
}
