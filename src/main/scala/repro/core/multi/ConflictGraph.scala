package repro.core.multi

import repro.core.TaskInstance
import scala.collection.mutable

/** Conflict groups of tasks for group-level parallelization (Section IV-A-1,
  * Fig 4 (c)-(e)), built from the candidate lists the greedy books from.
  *
  * Two tasks conflict when some (worker, slot) appears in both tasks'
  * candidate lists: only then can booking one take a worker the other could
  * book. The groups are the connected components of that relation, so no
  * (worker, slot) is listed by tasks of two groups, and each group can be
  * planned on its own without double booking. The rule is exact: workers
  * move over the slots, so on the generated workloads every task usually
  * reaches every other and all tasks form one group (EXPERIMENTS.md, T9).
  */
object ConflictGraph {

  /** The conflict groups: each group's member task indexes, ascending, and
    * the groups in order of their first member. One pass over every slot's
    * candidate list joins each task to the first task that listed the same
    * (worker, slot); `firstAt` is a table over `SlotWorkerKeys`.
    */
  def build(instances: Seq[TaskInstance]): Vector[Vector[Int]] = {
    val n = instances.size
    val keys = new SlotWorkerKeys(instances)
    val firstAt = Array.fill(keys.size)(-1)
    val uf = new UnionFind(n)
    for ((inst, i) <- instances.iterator.zipWithIndex; j <- 0 until inst.m) {
      val ws = inst.slots(j).workers
      var r = 0
      while (r < ws.length) {
        val key = keys(j, ws(r))
        if (firstAt(key) < 0) firstAt(key) = i else uf.union(firstAt(key), i)
        r += 1
      }
    }
    val groupOf = uf.dense()
    val members = Array.fill(groupOf.maxOption.fold(0)(_ + 1))(Vector.newBuilder[Int])
    for (i <- 0 until n) members(groupOf(i)) += i
    members.iterator.map(_.result()).toVector
  }

  /** Connected components of `n` nodes under `edges`: node → dense
    * component id, numbered in order of each component's first node.
    */
  def components(n: Int, edges: Iterable[(Int, Int)]): Array[Int] = {
    val uf = new UnionFind(n)
    edges.foreach { case (a, b) => uf.union(a, b) }
    uf.dense()
  }

  /** Union-find over `n` nodes; each root is its component's smallest node. */
  private final class UnionFind(n: Int) {
    private val parent = Array.tabulate(n)(identity)
    private def find(x: Int): Int = {
      var r = x; while (parent(r) != r) r = parent(r)
      var c = x; while (parent(c) != r) { val nx = parent(c); parent(c) = r; c = nx }
      r
    }
    def union(a: Int, b: Int): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    def dense(): Array[Int] = {
      val id = mutable.LinkedHashMap.empty[Int, Int]
      Array.tabulate(n)(i => id.getOrElseUpdate(find(i), id.size))
    }
  }
}

/** The dense (slot, worker) keys of `instances`' candidate lists:
  * `apply(j, w)` is `j * stride + w - minW`, where [minW, minW + stride) is
  * the range of listed worker ids, and `size` covers every slot of the
  * longest horizon. `ConflictGraph.build`'s `firstAt` and the `Ledger`'s
  * Conflicting Table and occupancy are tables over these keys.
  */
private[multi] final class SlotWorkerKeys(instances: Seq[TaskInstance]) {
  private var minW = Int.MaxValue
  private var maxW = Int.MinValue
  for (inst <- instances; s <- inst.slots) {
    val ws = s.workers
    var r = 0
    while (r < ws.length) { minW = math.min(minW, ws(r)); maxW = math.max(maxW, ws(r)); r += 1 }
  }
  private val stride = if (maxW < minW) 0 else Math.addExact(Math.subtractExact(maxW, minW), 1)
  val size: Int = Math.multiplyExact(instances.map(_.m).maxOption.getOrElse(0), stride)

  def apply(slot: Int, worker: Int): Int = slot * stride + worker - minW
}
