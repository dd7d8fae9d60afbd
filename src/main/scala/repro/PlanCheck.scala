package repro

import repro.core.{Execution, Quality, TaskInstance}
import repro.core.multi.MultiOutcome
import scala.collection.mutable

/** The plan validator every assignment path is checked by.
  *
  * A plan is the executions in commit order plus, per task, the quality the
  * assignment path reported. The checks:
  *  - no (worker, slot) is booked twice;
  *  - every execution names a known task and slot, and uses a worker from
  *    that slot's candidate list at its listed cost (rank 0 when
  *    `rankZero`, the single-task cost model);
  *  - no slot of a task is executed twice;
  *  - the total spend is within the budget;
  *  - each reported quality equals `Quality.qualityOf` of the task's
  *    executed slots within `QualityTol`.
  */
object PlanCheck {
  val QualityTol = 1e-9
  /** Slack on the budget for summation-order rounding only. */
  private val BudgetTol = 1e-9

  final case class Plan(
      executions: Seq[Execution],
      reportedQuality: Map[Int, Double],
      budget: Double,
  )

  object Plan {
    /** A multi-task outcome as a plan; `out.perTask` follows `instances`. */
    def of(instances: Seq[TaskInstance], out: MultiOutcome, budget: Double): Plan =
      Plan(out.executions,
        instances.iterator.zip(out.perTask).map { case (i, r) => i.task.id -> r.quality }.toMap,
        budget)
  }

  private val Limit = 20

  /** Problems found, empty when the plan is valid. At most `Limit` are kept. */
  def check(instances: Seq[TaskInstance], plan: Plan, k: Int,
            rankZero: Boolean = false): Vector[String] = {
    val out = Vector.newBuilder[String]
    var n = 0
    def fail(msg: String): Unit = { if (n < Limit) out += msg; n += 1 }

    val byId = instances.map(i => i.task.id -> i).toMap
    val booked = mutable.HashSet.empty[(Int, Int)]
    val executed = mutable.HashMap.empty[Int, mutable.LinkedHashSet[Int]]
    var spend = 0.0
    for (e <- plan.executions) {
      spend += e.cost
      if (!booked.add((e.workerId, e.slot)))
        fail(s"double booking: worker ${e.workerId} at slot ${e.slot} (task ${e.taskId})")
      byId.get(e.taskId) match {
        case None => fail(s"unknown task ${e.taskId}")
        case Some(inst) if e.slot < 0 || e.slot >= inst.m =>
          fail(s"task ${e.taskId}: slot ${e.slot} outside [0, ${inst.m})")
        case Some(inst) =>
          val sc = inst.slots(e.slot)
          val rank = sc.workers.indexOf(e.workerId)
          if (rank < 0)
            fail(s"task ${e.taskId} slot ${e.slot}: worker ${e.workerId} not a candidate")
          else if (rankZero && rank != 0)
            fail(s"task ${e.taskId} slot ${e.slot}: worker ${e.workerId} at rank $rank, not 0")
          else if (sc.costs(rank) != e.cost)
            fail(s"task ${e.taskId} slot ${e.slot}: cost ${e.cost} != listed ${sc.costs(rank)}")
          if (!executed.getOrElseUpdate(e.taskId, mutable.LinkedHashSet.empty).add(e.slot))
            fail(s"task ${e.taskId}: slot ${e.slot} executed twice")
      }
    }
    if (spend > plan.budget + BudgetTol)
      fail(s"spend $spend exceeds budget ${plan.budget}")
    for (inst <- instances) {
      val id = inst.task.id
      val slots = executed.get(id).map(_.toSeq).getOrElse(Seq.empty)
      val q = Quality.qualityOf(inst.m, slots, k)
      plan.reportedQuality.get(id) match {
        case None => fail(s"task $id: no reported quality")
        case Some(r) if !(math.abs(r - q) <= QualityTol) =>
          fail(s"task $id: reported quality $r != recomputed $q")
        case _ =>
      }
    }
    if (n > Limit) out += s"... and ${n - Limit} more"
    out.result()
  }

  /** Executions of a single-task plan: each executed slot at its rank-0
    * worker and cost.
    */
  def singleTaskExecutions(inst: TaskInstance, slots: Seq[Int]): Seq[Execution] =
    slots.map { j =>
      val sc = inst.slots(j)
      if (sc.isEmpty) Execution(inst.task.id, j, -1, Double.NaN)
      else Execution(inst.task.id, j, sc.workers(0), sc.costs(0))
    }
}
