package repro.core

import scala.collection.mutable.ArrayBuffer

/** Tree-structured approximation of the 1-D order-k Voronoi diagram
  * (Section III-C, Fig 3 (d)-(e)).
  *
  * Each node covers a slot segment [l, r] and stores three of the paper's
  * quadruple ⟨k-set, knn(l), knn(r), q'⟩:
  *  - `knnL` / `knnR`: k-NN results of the two end slots, ascending by
  *    distance, so the k-th distance `kmax(l)` / `kmax(r)` is O(1);
  *  - `qSum`:  the partial quality q' — the sum of `-p·log2 p` over the
  *    segment's slots.
  * The k-set (union of k-NN results over the segment) is not stored: no
  * query or update reads it, and it is the union of the leaves' `knnL` and
  * `knnR` below the node.
  *
  * Splitting stops when (Condition 1) `knnL == knnR` — by Lemma 8 the whole
  * segment then lies in one order-k Voronoi cell — or (Condition 2) the
  * segment length is at most `ts`, the accuracy/overhead knob.
  *
  * A node's *influence range* is
  * `[max(0, l - kmax(l)), min(m-1, r + kmax(r))]`; an executed slot outside
  * it cannot change any of the node's k-NN results, so `insert(t)` skips
  * (Case 2) entire subtrees whose influence range excludes `t` and rebuilds
  * only the touched ones (Case 1), mirroring aggregated-tree maintenance.
  *
  * `nodesSkipped` counts the subtrees an insert skipped (Case 2). T8's
  * index-cost figures (Fig 8 (c)/(e)) read `nodeCount` and the replay time.
  * No selection reads the tree, so Approx* does not maintain it:
  * `QualityTree.replay` rebuilds it from a finished commit order.
  */
final class QualityTree(val m: Int, val k: Int, val ts: Int) {

  final class Node(val l: Int, val r: Int) {
    var knnL: IndexedSeq[Int] = IndexedSeq.empty
    var knnR: IndexedSeq[Int] = IndexedSeq.empty
    var qSum: Double = 0.0
    var left: Node = null
    var right: Node = null
    def isLeaf: Boolean = left == null
    def len: Int = r - l + 1
    /** k-th NN distance of an end slot; MaxValue while fewer than k exist. */
    private def kmax(j: Int, nn: IndexedSeq[Int]): Int =
      if (nn.length < k) Int.MaxValue else math.abs(nn.last - j)
    def influenceLo: Int =
      { val d = kmax(l, knnL); if (d == Int.MaxValue) 0 else math.max(0, l - d) }
    def influenceHi: Int =
      { val d = kmax(r, knnR); if (d == Int.MaxValue) m - 1 else math.min(m - 1, r + d) }
  }

  private val exec = new ExecutedSet(m)
  var root: Node = null
  var nodesSkipped: Long = 0

  def executedSet: ExecutedSet = exec
  def quality: Double = if (root == null) 0.0 else root.qSum

  /** Total nodes currently in the tree (diagnostics / Fig 8 (e)). */
  def nodeCount: Int = {
    def go(n: Node): Int = if (n == null) 0 else 1 + go(n.left) + go(n.right)
    go(root)
  }

  private def slotContribution(j: Int): Double =
    Quality.contribution(Quality.finishProb(j, exec, k))

  /** (Re)compute a node's quadruple; recurses only when neither stopping
    * condition holds.
    */
  private def build(l: Int, r: Int): Node = {
    val n = new Node(l, r)
    n.knnL = exec.knn(l, k)
    n.knnR = exec.knn(r, k)
    val sameCell = n.knnL == n.knnR // Condition 1 (Lemma 8)
    if (sameCell || n.len <= ts) {  // Condition 2 (t_s knob)
      var q = 0.0
      var j = l
      while (j <= r) { q += slotContribution(j); j += 1 }
      n.qSum = q
    } else {
      val mid = (l + r) >>> 1
      n.left = build(l, mid)
      n.right = build(mid + 1, r)
      n.qSum = n.left.qSum + n.right.qSum
    }
    n
  }

  /** Build the tree for the current executed set from scratch. */
  def rebuild(): Unit = { root = build(0, m - 1) }

  /** Execute slot `t`: update the executed set and refresh only subtrees
    * whose influence range contains `t`.
    */
  def insert(t: Int): Unit = {
    exec.add(t)
    if (root == null) { rebuild(); return }
    root = refresh(root, t)
  }

  private def refresh(n: Node, t: Int): Node = {
    val affected = t >= n.influenceLo && t <= n.influenceHi
    if (!affected) { nodesSkipped += 1; n }    // Case 2: subtree untouched
    else if (n.isLeaf) build(n.l, n.r)          // Case 1, leaf: re-derive (may split)
    else {                                      // Case 1, inner: descend + re-aggregate
      n.left = refresh(n.left, t)
      n.right = refresh(n.right, t)
      n.knnL = exec.knn(n.l, k)
      n.knnR = exec.knn(n.r, k)
      n.qSum = n.left.qSum + n.right.qSum
      n
    }
  }

  /** Test oracle: q' aggregated at the root must equal a full recompute. */
  def recomputeFromScratch(): Double = {
    var q = 0.0
    var j = 0
    while (j < m) { q += slotContribution(j); j += 1 }
    q
  }

  /** The order-k Voronoi cells induced by the current leaves: consecutive
    * leaf segments whose end-slot k-NN sets agree are true cells (Lemma 8);
    * `ts`-bounded leaves are the approximation.
    */
  def leafSegments: Vector[(Int, Int)] = {
    val out = new ArrayBuffer[(Int, Int)]
    def go(n: Node): Unit =
      if (n.isLeaf) out += ((n.l, n.r)) else { go(n.left); go(n.right) }
    if (root != null) go(root)
    out.toVector
  }
}

object QualityTree {
  /** Builds the tree over no executed slots, then inserts `order` one slot at
    * a time, as the greedy commits them: the index upkeep of the paper's
    * Fig 8 (c)/(e), off the greedy's path. Returns the tree and the
    * nanoseconds the build and the inserts took.
    */
  def replay(m: Int, k: Int, ts: Int, order: Seq[Int]): (QualityTree, Long) = {
    val t0 = System.nanoTime()
    val tree = new QualityTree(m, k, ts)
    tree.rebuild()
    order.foreach(tree.insert)
    (tree, System.nanoTime() - t0)
  }
}
