package repro.core

/** The paper's entropy-based TCSC quality metric (Section II-B).
  *
  * For a task of `m` slots with executed set S:
  *  - executed slot: finishing probability p = 1/m (or λ/m with reliability);
  *  - unexecuted slot j: p = (1 - ρ_err(j)) / m where
  *    ρ_err(j) = Σ_{e ∈ kNN(j,S)} |j-e| / (k·m)          (Eq 3)
  *    and, per footnote 2, each missing neighbour (|S| < k) contributes the
  *    largest possible interpolation distance m;
  *  - q(τ) = -Σ_j p(j)·log2 p(j)                         (Eq 1)
  *
  * q ranges from 0 (S = ∅, all p = 0) to log2 m (all slots executed).
  * All p ≤ 1/m < 1/e for m ≥ 3, so each term -p·log2 p is increasing in p;
  * with Lemmas 6/7 this makes q monotone and submodular in S.
  */
object Quality {
  private val Log2 = math.log(2.0)

  def log2(x: Double): Double = math.log(x) / Log2

  /** Entropy contribution of one slot: -p·log2(p), with 0·log 0 = 0. */
  def contribution(p: Double): Double =
    if (p <= 0.0) 0.0 else -p * log2(p)

  /** Interpolation error ratio of slot `j` (Eq 3 + footnote 2).
    * `neighbors` are the executed slots returned by a k-NN query (possibly
    * fewer than k).
    */
  def errRatio(j: Int, neighbors: IndexedSeq[Int], k: Int, m: Int): Double = {
    var sum = 0.0
    var i = 0
    while (i < neighbors.length) { sum += math.abs(neighbors(i) - j); i += 1 }
    sum += (k - neighbors.length).toDouble * m // phantom neighbours at dist m
    sum / (k.toDouble * m)
  }

  /** Finishing probability of slot `j` given executed set `S` (Eq 2). */
  def finishProb(j: Int, s: ExecutedSet, k: Int, extra: Int = -1): Double = {
    val m = s.m
    if (s.contains(j) || j == extra) 1.0 / m
    else if (s.isEmpty && extra < 0) 0.0
    else {
      // Every partial sum is an integer below 2^53, so this equals
      // `(1 - errRatio(j, s.knn(j, k, extra), k, m)) / m` bit for bit.
      val sum = s.knnDistSum(j, k, extra)
      (1.0 - sum.toDouble / (k.toDouble * m)) / m
    }
  }

  /** Quality q(τ) of the executed set `S` (Eq 1). Slots iterate ascending so
    * floating-point summation order is identical across algorithm variants.
    */
  def quality(s: ExecutedSet, k: Int): Double = {
    var q = 0.0
    var j = 0
    while (j < s.m) { q += contribution(finishProb(j, s, k)); j += 1 }
    q
  }

  /** Quality of an explicit executed-slot collection (convenience). */
  def qualityOf(m: Int, executed: Iterable[Int], k: Int): Double = {
    val s = new ExecutedSet(m)
    executed.foreach(s.add)
    quality(s, k)
  }

  // ----- Worker-reliability extension (Eq 4–5) ------------------------------

  /** Finishing probability with per-slot worker reliabilities λ (Eq 4–5).
    * `lambda(e)` is the reliability of the worker executing slot `e`.
    * Phantom neighbours (|kNN| < k) count λ = 1 at distance m, which makes
    * the extension degenerate to Eq 2–3 when every λ = 1.
    */
  def finishProbReliability(
      j: Int, s: ExecutedSet, k: Int, lambda: Int => Double): Double = {
    val m = s.m
    if (s.contains(j)) lambda(j) / m
    else {
      val nn = s.knn(j, k)
      if (nn.isEmpty) 0.0
      else {
        var lamSum = 0.0; var wErr = 0.0
        nn.foreach { e => lamSum += lambda(e); wErr += lambda(e) * math.abs(e - j) }
        val phantoms = k - nn.length
        lamSum += phantoms
        wErr += phantoms.toDouble * m
        val rho = wErr / (k.toDouble * m)
        math.max(0.0, (lamSum / k - rho) / m)
      }
    }
  }

  /** Quality under the reliability extension. */
  def qualityReliability(s: ExecutedSet, k: Int, lambda: Int => Double): Double = {
    var q = 0.0
    var j = 0
    while (j < s.m) { q += contribution(finishProbReliability(j, s, k, lambda)); j += 1 }
    q
  }
}
