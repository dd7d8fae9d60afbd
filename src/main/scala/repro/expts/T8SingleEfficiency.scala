package repro.expts

import repro.core._
import repro.data.TcscGen
import Harness.Cell

/** T8 ≡ Fig 8 — efficiency of single-task assignment: Approx (Algorithm 1
  * with sorted-list k-NN) vs Approx* (tree-indexed order-k Voronoi +
  * best-first pruning).
  *
  *  (a) running time vs m            (b) running time vs |W|
  *  (c) cost breakdown of Approx*    (d) pruning ratio vs m × distribution
  *  (e) tree cost vs t_s             (f) running time vs distribution
  *  (g) running time vs k            (h) running time vs budget
  *
  * Sweeps are scaled to the container (m ∈ {100, 300, 500}, plus the paper's
  * m = 1000 in (a); the paper used {300, 500, 1000} on a 256 GB Xeon) — see
  * EXPERIMENTS.md for the mapping.
  * Each point averages `reps` independent task instances; each instance's
  * time is `Harness.medianMs`, the median of 5 runs after one warm-up run.
  * Approx* builds no `QualityTree`, so (c)'s tree column and (e) replay its
  * commit order into one (`QualityTree.replay`), timed the same way.
  */
object T8SingleEfficiency {

  def run(seed: Long = 13, reps: Int = 2): Seq[Cell] = {
    val cells = Vector.newBuilder[Cell]
    val defaultParams = TcscParams()

    def instances(m: Int, nW: Int, dist: TcscGen.Dist): Seq[TaskInstance] =
      TcscGen.scenario(reps, m, nW, dist, seed).instances

    /** Average (naiveMs, starMs) and each instance's Approx* outcome. */
    def measure(insts: Seq[TaskInstance], frac: Double, params: TcscParams,
                runNaive: Boolean = true): (Double, Double, Seq[GreedyIndexed.IndexedOutcome]) = {
      var nMs = 0.0; var sMs = 0.0
      val outs = insts.map { inst =>
        val b = inst.fullCost * frac
        if (runNaive) {
          val (_, t) = Harness.medianMs(GreedyNaive.run(inst, b, params))
          nMs += t
        }
        val (o, t2) = Harness.medianMs(GreedyIndexed.run(inst, b, params))
        sMs += t2
        o
      }
      (nMs / insts.size, sMs / insts.size, outs)
    }

    /** Average warmed replay time (ms) and node count of the tree built
      * along each outcome's commit order.
      */
    def treeCost(insts: Seq[TaskInstance], outs: Seq[GreedyIndexed.IndexedOutcome],
                 params: TcscParams): (Double, Double) = {
      val runs = insts.zip(outs).map { case (inst, o) =>
        val order = o.result.executedSlots
        val ((tree, _), ms) = Harness.medianMs(QualityTree.replay(inst.m, params.k, params.ts, order))
        (ms, tree.nodeCount.toDouble)
      }
      (runs.map(_._1).sum / runs.size, runs.map(_._2).sum / runs.size)
    }

    // (a) time vs m --------------------------------------------------------
    for (m <- Seq(100, 300, 500, 1000)) {
      val (n, s, _) = measure(instances(m, 1000, TcscGen.Uniform), 0.25, defaultParams)
      cells += Cell("Fig8a:time_vs_m", m.toString, "Approx", n)
      cells += Cell("Fig8a:time_vs_m", m.toString, "Approx*", s)
    }

    // (b) time vs |W| ------------------------------------------------------
    for (nW <- Seq(500, 1000, 2000)) {
      val (n, s, _) = measure(instances(300, nW, TcscGen.Uniform), 0.25, defaultParams)
      cells += Cell("Fig8b:time_vs_W", nW.toString, "Approx", n)
      cells += Cell("Fig8b:time_vs_W", nW.toString, "Approx*", s)
    }

    // (c) breakdown at defaults -------------------------------------------
    locally {
      val insts = instances(300, 1000, TcscGen.Uniform)
      val (n, s, outs) = measure(insts, 0.25, defaultParams)
      val heur = outs.map(_.stats.heuristicNanos).sum / outs.size / 1e6
      val upd  = outs.map(_.stats.updateNanos).sum / outs.size / 1e6
      val (tree, _) = treeCost(insts, outs, defaultParams)
      cells += Cell("Fig8c:breakdown", "m=300", "Approx_total", n)
      cells += Cell("Fig8c:breakdown", "m=300", "Approx*_total", s)
      cells += Cell("Fig8c:breakdown", "m=300", "Approx*_heuristic", heur)
      cells += Cell("Fig8c:breakdown", "m=300", "Approx*_update", upd)
      cells += Cell("Fig8c:breakdown", "m=300", "Approx*_tree", tree)
    }

    // (d) pruning ratio vs m × distribution (no naive runs needed) ---------
    for (dist <- TcscGen.AllDists; m <- Seq(100, 300, 500)) {
      val (_, _, outs) = measure(instances(m, 1000, dist), 0.25, defaultParams,
        runNaive = false)
      val ratio = outs.map { o =>
        val it = o.stats.iterations.toLong
        val naiveEquiv = (0L until it).map(m.toLong - _).sum.toDouble
        if (naiveEquiv == 0) 0.0 else 1.0 - o.stats.candidateEvaluations / naiveEquiv
      }.sum / outs.size
      cells += Cell("Fig8d:pruning_vs_m", s"${dist.name}/m=$m", "pruning_ratio", ratio)
    }

    // (e) tree cost vs t_s -------------------------------------------------
    for (ts <- Seq(2, 4, 8, 16)) {
      val insts = instances(300, 1000, TcscGen.Uniform)
      val params = TcscParams(ts = ts)
      val (_, _, outs) = measure(insts, 0.25, params, runNaive = false)
      val (ms, nodes) = treeCost(insts, outs, params)
      cells += Cell("Fig8e:tree_vs_ts", ts.toString, "tree_ms", ms)
      cells += Cell("Fig8e:tree_vs_ts", ts.toString, "tree_nodes", nodes)
    }

    // (f) time vs distribution --------------------------------------------
    for (dist <- TcscGen.AllDists) {
      val (n, s, _) = measure(instances(300, 1000, dist), 0.25, defaultParams)
      cells += Cell("Fig8f:time_vs_dist", dist.name, "Approx", n)
      cells += Cell("Fig8f:time_vs_dist", dist.name, "Approx*", s)
    }

    // (g) time vs k --------------------------------------------------------
    for (k <- Seq(2, 3, 4, 5)) {
      val (n, s, _) = measure(instances(300, 1000, TcscGen.Uniform), 0.25,
        TcscParams(k = k))
      cells += Cell("Fig8g:time_vs_k", k.toString, "Approx", n)
      cells += Cell("Fig8g:time_vs_k", k.toString, "Approx*", s)
    }

    // (h) time vs budget ---------------------------------------------------
    for (frac <- Seq(0.125, 0.25, 0.5)) {
      val (n, s, _) = measure(instances(300, 1000, TcscGen.Uniform), frac, defaultParams)
      cells += Cell("Fig8h:time_vs_budget", f"$frac%.3f", "Approx", n)
      cells += Cell("Fig8h:time_vs_budget", f"$frac%.3f", "Approx*", s)
    }

    cells.result()
  }

  def render(cells: Seq[Cell]): Seq[String] =
    Harness.printTable("T8 (Fig 8): single-task efficiency (ms unless noted)",
      Seq("section", "x", "series", "value"),
      cells.map(c => Harness.row(c.section, c.x, c.series, c.value)))
}
