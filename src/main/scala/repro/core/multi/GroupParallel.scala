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

  def run(instances: Seq[TaskInstance], budget: Double, params: TcscParams,
          threads: Int): GroupOutcome = {
    val t0 = System.nanoTime()
    val inst = instances.toIndexedSeq
    val graph = ConflictGraph.build(inst)
    val total = inst.size.toDouble
    val jobs = graph.groups.map { members =>
      new Callable[(Vector[Int], MultiOutcome)] {
        def call(): (Vector[Int], MultiOutcome) = {
          val share = budget * members.size / total
          val (out, _) = TaskParallel.run(members.map(inst(_)), share, params, threads = 1)
          (members, out)
        }
      }
    }
    val execPool = Executors.newFixedThreadPool(math.max(1, threads))
    val results =
      try execPool.invokeAll(jobs.asJava).asScala.map(_.get()).toVector
      finally execPool.shutdown()

    // Stitch per-group outputs back into task order.
    val perTask = Array.fill(inst.size)(AssignmentResult(Vector.empty, 0.0, 0.0))
    val execs = Vector.newBuilder[Execution]
    var commits = 0; var evals = 0L; var conflicts = 0L
    for ((members, out) <- results) {
      members.zip(out.perTask).foreach { case (tid, r) => perTask(tid) = r }
      execs ++= out.executions
      commits += out.commits; evals += out.evals; conflicts += out.conflicts
    }
    val per = perTask.toVector
    val outcome = MultiOutcome(per, execs.result(), per.map(_.totalCost).sum,
      per.map(_.quality).sum,
      if (per.isEmpty) 0.0 else per.map(_.quality).min,
      commits, evals, conflicts, System.nanoTime() - t0)
    GroupOutcome(outcome, graph.groups.size, graph.groups.map(_.size).maxOption.getOrElse(0))
  }
}
