package repro.core.multi

import repro.core.TaskInstance
import repro.data.GridIndex
import scala.collection.mutable

/** Conflict graph over tasks via expanding NN bounds (Section IV-A-1,
  * Fig 4 (c)-(e)) and its independent groups.
  *
  * Two tasks conflict when their candidate-worker neighbourhoods intersect:
  * starting from each task's 1-NN bound, a node of degree d expands to its
  * (d+1)-NN bound, and edges are (re)drawn until a fixpoint — the paper's
  * gradual expansion. Connected components of the final graph are the
  * independent groups that group-level parallelization runs concurrently.
  */
object ConflictGraph {

  final case class Result(
      groupOf: Array[Int],          // task id -> group id (0-based, dense)
      groups: Vector[Vector[Int]],  // group id -> member task ids
      edges: Set[(Int, Int)],       // conflict edges (i < j)
      rounds: Int,                  // expansion rounds until fixpoint
  )

  /** Build the graph from task locations and one representative position per
    * worker (their first presence), as in the paper's Fig 4 illustration.
    */
  def build(instances: Seq[TaskInstance],
            workerPos: Seq[(Int, Double, Double)],
            maxRounds: Int = 10): Result = {
    val n = instances.size
    val index = GridIndex(workerPos)
    val degree = Array.fill(n)(0)
    var edges = Set.empty[(Int, Int)]
    var rounds = 0
    var changed = true
    while (changed && rounds < maxRounds) {
      changed = false
      rounds += 1
      // Each task claims its (degree+1) nearest workers.
      val claimed: Array[Set[Int]] = Array.tabulate(n) { i =>
        val t = instances(i).task
        val (ids, _) = index.knn(t.x, t.y, degree(i) + 1)
        ids.toSet
      }
      val byWorker = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
      for (i <- 0 until n; w <- claimed(i))
        byWorker.getOrElseUpdate(w, mutable.ArrayBuffer.empty) += i
      for ((_, ts) <- byWorker if ts.length > 1;
           a <- ts; b <- ts if a < b) {
        val e = (a, b)
        if (!edges.contains(e)) { edges += e; changed = true }
      }
      if (changed) {
        val deg = Array.fill(n)(0)
        for ((a, b) <- edges) { deg(a) += 1; deg(b) += 1 }
        Array.copy(deg, 0, degree, 0, n)
      }
    }
    val groupOf = components(n, edges)
    val groups = Vector.tabulate(groupOf.maxOption.fold(0)(_ + 1))(g =>
      (0 until n).filter(groupOf(_) == g).toVector)
    Result(groupOf, groups, edges, rounds)
  }

  /** Connected components of `n` nodes under `edges` by union-find: node →
    * dense component id, numbered in order of each component's first node.
    */
  def components(n: Int, edges: Iterable[(Int, Int)]): Array[Int] = {
    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = {
      var r = x; while (parent(r) != r) r = parent(r)
      var c = x; while (parent(c) != r) { val nx = parent(c); parent(c) = r; c = nx }
      r
    }
    edges.foreach { case (a, b) =>
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    val dense = mutable.LinkedHashMap.empty[Int, Int]
    Array.tabulate(n)(i => dense.getOrElseUpdate(find(i), dense.size))
  }
}
