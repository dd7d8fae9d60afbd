package repro.core.multi

import repro.core._

/** Group-level parallelization of MSQM (Section IV-A-1).
  *
  * Tasks are first partitioned into conflict groups (`ConflictGraph`): no
  * (worker, slot) is listed by tasks of two groups, so groups never compete
  * for workers and the stitched plan books each (worker, slot) at most once.
  * Each group is planned on its own with a budget share proportional to its
  * size (b·|G|/|T|; the global budget cannot be enforced across groups
  * without reintroducing the coordination this variant avoids — documented
  * interpretation, DESIGN.md).
  *
  * `run` plans the groups in order on the calling thread; the Spark job
  * (`AssignPipeline.assign`) is the parallel executor, one group per
  * partition, and plans each group with the same `planGroup`. The paper's
  * drawback shows in its extreme form: workers move over the slots, so
  * usually all tasks form one group (Fig 9 (a)-(b), EXPERIMENTS.md).
  */
object GroupParallel {

  /** Plans the conflict group `members` (indexes into `insts`) with the
    * task-level lazy greedy and the budget share b·|G|/|T|. `run` and the
    * Spark job plan every group with it.
    */
  def planGroup(insts: IndexedSeq[TaskInstance], members: Seq[Int], budget: Double,
                params: TcscParams): MultiOutcome =
    TaskParallel.run(members.map(insts(_)), budget * members.size / insts.size, params)._1

  def run(instances: Seq[TaskInstance], budget: Double, params: TcscParams): MultiOutcome = {
    val inst = instances.toIndexedSeq
    val groups = ConflictGraph.build(inst).groups
    val results = groups.map(planGroup(inst, _, budget, params))

    // Stitch per-group outputs back into task order.
    val perTask = Array.fill(inst.size)(AssignmentResult(Vector.empty, 0.0, 0.0))
    for ((members, out) <- groups.zip(results))
      members.zip(out.perTask).foreach { case (tid, r) => perTask(tid) = r }
    MultiOutcome.of(perTask.toVector, results.flatMap(_.executions),
      results.map(_.commits).sum, results.map(_.evals).sum, results.map(_.conflicts).sum)
  }
}
