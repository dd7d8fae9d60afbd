package repro.core.multi

import repro.core._
import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

/** Group-level parallelization of MSQM (Section IV-A-1).
  *
  * Tasks are first partitioned into conflict groups (`ConflictGraph`): no
  * (worker, slot) is listed by tasks of two groups, so groups never compete
  * for workers and the stitched plan books each (worker, slot) at most once.
  * Each group's greedy runs on the thread pool with a budget share
  * proportional to its size (b·|G|/|T|; the global budget cannot be
  * enforced across groups without reintroducing the coordination this
  * variant avoids — documented interpretation, DESIGN.md).
  *
  * The paper's drawback shows in its extreme form: workers move over the
  * slots, so usually all tasks form one group, which runs on one thread
  * (Fig 9 (a)-(b), EXPERIMENTS.md).
  */
object GroupParallel {

  final case class GroupOutcome(
      outcome: MultiOutcome,
      groups: Int,
      largestGroup: Int,
  )

  /** Plans the conflict group `members` (indexes into `insts`) with the
    * task-level lazy greedy at one thread and the budget share
    * b·|G|/|T|. `run` and the Spark job plan every group with it.
    */
  def planGroup(insts: IndexedSeq[TaskInstance], members: Seq[Int], budget: Double,
                params: TcscParams): MultiOutcome =
    TaskParallel.run(members.map(insts(_)), budget * members.size / insts.size, params,
      threads = 1)._1

  def run(instances: Seq[TaskInstance], budget: Double, params: TcscParams,
          threads: Int): GroupOutcome = {
    val t0 = System.nanoTime()
    val inst = instances.toIndexedSeq
    val graph = ConflictGraph.build(inst)
    val jobs = graph.groups.map { members =>
      new Callable[MultiOutcome] { def call(): MultiOutcome = planGroup(inst, members, budget, params) }
    }
    val execPool = Executors.newFixedThreadPool(math.max(1, threads))
    val results =
      try execPool.invokeAll(jobs.asJava).asScala.map(_.get()).toVector
      finally execPool.shutdown()

    // Stitch per-group outputs back into task order.
    val perTask = Array.fill(inst.size)(AssignmentResult(Vector.empty, 0.0, 0.0))
    for ((members, out) <- graph.groups.zip(results))
      members.zip(out.perTask).foreach { case (tid, r) => perTask(tid) = r }
    val outcome = MultiOutcome.of(perTask.toVector, results.flatMap(_.executions),
      results.map(_.commits).sum, results.map(_.evals).sum, results.map(_.conflicts).sum,
      System.nanoTime() - t0)
    GroupOutcome(outcome, graph.groups.size, graph.groups.map(_.size).maxOption.getOrElse(0))
  }
}
