package repro.expts

import repro.core._
import repro.core.multi.{ConflictGraph, GroupParallel, SerialMulti, TaskParallel}
import repro.data.TcscGen
import Harness.Cell

/** T9 ≡ Fig 9 — efficiency and scalability of multi-task assignment.
  *
  *  (a) time vs #cores × basic, and group- and task-parallel once each:
  *      both plan on the calling thread, so they take no thread count
  *  (b) time vs distribution × {group, task}, and the conflict groups
  *  (c) #worker conflicts vs |T|
  *  (d) time vs |T| × {basic, task}
  *  (e) time vs m × {group, task}
  *  (f) priority adjustment on/off (task-parallel)
  *  (g) q_min: time vs |T| × {Approx, Approx*}
  *  (h) q_min: time vs m × {Approx, Approx*}
  *
  * Scaled to the container: defaults |T| = 40, m = 80, |W| = 800 (paper:
  * |T| ∈ {100, 300, 500}, m ∈ {300, 500, 1000} on a Xeon server) — shapes,
  * not absolute times, are the reproduction target (EXPERIMENTS.md). Every
  * time is `Harness.medianMs`: one untimed warm-up run, then the median of
  * 5 timed runs.
  */
object T9MultiEfficiency {

  def run(seed: Long = 17, params: TcscParams = TcscParams()): Seq[Cell] = {
    val cells = Vector.newBuilder[Cell]
    val defT = 40; val defM = 80; val defW = 800; val defFrac = 0.25

    def scen(nT: Int = defT, m: Int = defM, nW: Int = defW,
             dist: TcscGen.Dist = TcscGen.Uniform) =
      TcscGen.scenario(nT, m, nW, dist, seed)

    // (a) time vs cores ----------------------------------------------------
    locally {
      val sc = scen()
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (_, basicMs) = Harness.medianMs(SerialMulti.basic(sc.instances, b, params))
      // Group- and task-level plan on the calling thread, so each has one x.
      val (_, gMs) = Harness.medianMs(GroupParallel.run(sc.instances, b, params))
      val (_, tMs) = Harness.medianMs(TaskParallel.run(sc.instances, b, params))
      cells += Cell("Fig9a:time_vs_cores", "1", "group", gMs)
      cells += Cell("Fig9a:time_vs_cores", "1", "task", tMs)
      for (cores <- Seq(1, 2, 4, 8))
        cells += Cell("Fig9a:time_vs_cores", cores.toString, "basic", basicMs)
    }

    // (a2) scarce-worker regime: heavy conflicts merge tasks into large
    // groups, the group-level drawback the paper describes ("large groups
    // and heavyweight computation tasks") — the regime behind the Fig 9 (a)
    // ordering where task-level wins.
    locally {
      val sc = scen(nW = 120, dist = TcscGen.Poi)
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val groups = ConflictGraph.build(sc.instances)
      val (_, gMs) = Harness.medianMs(GroupParallel.run(sc.instances, b, params))
      val (_, tMs) = Harness.medianMs(TaskParallel.run(sc.instances, b, params))
      cells += Cell("Fig9a2:scarce_workers", "W=120", "group", gMs)
      cells += Cell("Fig9a2:scarce_workers", "W=120", "task", tMs)
      cells += Cell("Fig9a2:scarce_workers", "W=120", "largest_group", groups.map(_.size).max.toDouble)
      cells += Cell("Fig9a2:scarce_workers", "W=120", "groups", groups.size.toDouble)
    }

    // (b) time vs distribution ---------------------------------------------
    for (dist <- TcscGen.AllDists) {
      val sc = scen(dist = dist)
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (_, gMs) = Harness.medianMs(GroupParallel.run(sc.instances, b, params))
      val (_, tMs) = Harness.medianMs(TaskParallel.run(sc.instances, b, params))
      cells += Cell("Fig9b:time_vs_dist", dist.name, "group", gMs)
      cells += Cell("Fig9b:time_vs_dist", dist.name, "groups",
        ConflictGraph.build(sc.instances).size.toDouble)
      cells += Cell("Fig9b:time_vs_dist", dist.name, "task", tMs)
    }

    // (c) #conflicts vs |T| ------------------------------------------------
    for (nT <- Seq(20, 40, 60)) {
      val sc = scen(nT = nT)
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (out, _) = TaskParallel.run(sc.instances, b, params)
      cells += Cell("Fig9c:conflicts_vs_T", nT.toString, "conflicts", out.conflicts.toDouble)
    }

    // (d) time vs |T| ------------------------------------------------------
    for (nT <- Seq(10, 20, 40)) {
      val sc = scen(nT = nT)
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (_, bMs) = Harness.medianMs(SerialMulti.basic(sc.instances, b, params))
      val (_, tMs) = Harness.medianMs(TaskParallel.run(sc.instances, b, params))
      cells += Cell("Fig9d:time_vs_T", nT.toString, "basic", bMs)
      cells += Cell("Fig9d:time_vs_T", nT.toString, "task", tMs)
    }

    // (e) time vs m --------------------------------------------------------
    for (m <- Seq(40, 80, 120)) {
      val sc = scen(m = m)
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (_, gMs) = Harness.medianMs(GroupParallel.run(sc.instances, b, params))
      val (_, tMs) = Harness.medianMs(TaskParallel.run(sc.instances, b, params))
      cells += Cell("Fig9e:time_vs_m", m.toString, "group", gMs)
      cells += Cell("Fig9e:time_vs_m", m.toString, "task", tMs)
    }

    // (f) priority effect --------------------------------------------------
    locally {
      val sc = scen()
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (_, onMs) = Harness.medianMs(
        TaskParallel.run(sc.instances, b, params, priority = true))
      val (_, offMs) = Harness.medianMs(
        TaskParallel.run(sc.instances, b, params, priority = false))
      cells += Cell("Fig9f:priority", "on", "task", onMs)
      cells += Cell("Fig9f:priority", "off", "task", offMs)
    }

    // (g) q_min: time vs |T| ----------------------------------------------
    for (nT <- Seq(10, 20, 40)) {
      val sc = scen(nT = nT)
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (_, nMs) = Harness.medianMs(
        SerialMulti.minQuality(sc.instances, b, params, indexed = false))
      val (_, sMs) = Harness.medianMs(
        SerialMulti.minQuality(sc.instances, b, params, indexed = true))
      cells += Cell("Fig9g:qmin_time_vs_T", nT.toString, "Approx", nMs)
      cells += Cell("Fig9g:qmin_time_vs_T", nT.toString, "Approx*", sMs)
    }

    // (h) q_min: time vs m -------------------------------------------------
    for (m <- Seq(40, 80, 120)) {
      val sc = scen(m = m)
      val b = TcscGen.budgetFor(sc.instances, defFrac)
      val (_, nMs) = Harness.medianMs(
        SerialMulti.minQuality(sc.instances, b, params, indexed = false))
      val (_, sMs) = Harness.medianMs(
        SerialMulti.minQuality(sc.instances, b, params, indexed = true))
      cells += Cell("Fig9h:qmin_time_vs_m", m.toString, "Approx", nMs)
      cells += Cell("Fig9h:qmin_time_vs_m", m.toString, "Approx*", sMs)
    }

    cells.result()
  }

  def render(cells: Seq[Cell]): Seq[String] =
    Harness.printTable("T9 (Fig 9): multi-task efficiency (ms unless noted)",
      Seq("section", "x", "series", "value"),
      cells.map(c => Harness.row(c.section, c.x, c.series, c.value)))
}
