package tcscbench

/** Every per-layer metric a traced run reports, with its unit. The list in
  * BENCHMARK.json names the same metrics; README.md gives each one's
  * predicted mover.
  */
object PerLayer {
  val all: Seq[(String, String)] = Seq(
    // data: TcscGen.slotIndexes and TcscGen.instance
    "data.index_ms" -> "ms", "data.candidates_ms" -> "ms", "data.knn_queries" -> "count",
    // core: GreedyIndexed.run and its GreedyStats (sqm_m1000)
    "core.assign_ms" -> "ms", "core.heuristic_ms" -> "ms", "core.update_ms" -> "ms",
    "core.tree_ms" -> "ms", "core.commits" -> "count", "core.delta_evals" -> "count",
    "core.pruning_ratio" -> "ratio", "core.slots_visited" -> "count", "core.tree_nodes" -> "count",
    // core: replay of each plan's commit order, mean per call
    "core.window_ns" -> "ns", "core.window_slots" -> "count", "core.delta_q_ns" -> "ns",
    "core.insert_ns" -> "ns", "core.knn_ns" -> "ns", "core.kth_dist_ns" -> "ns",
    "core.tree_insert_ns" -> "ns",
    // core: Quality.qualityOf over the plan
    "core.score_ms" -> "ms",
    // core.multi: TaskParallel.run and its outcome
    "multi.assign_ms" -> "ms", "multi.commits" -> "count", "multi.evals_per_commit" -> "ratio",
    "multi.conflicts_per_commit" -> "ratio", "multi.conflict_records" -> "count",
    "multi.speedup_vs_1_thread" -> "ratio",
    // core.multi: replay through a fresh WorkerPool, mean per commit
    "multi.free_rank_ns" -> "ns", "multi.try_take_ns" -> "ns", "multi.conflict_probe_us" -> "us",
    // spark: AssignPipeline stages and the listener's totals per round
    "spark.edges_ms" -> "ms", "spark.groups_ms" -> "ms", "spark.score_ms" -> "ms", "spark.edges" -> "count", "spark.groups" -> "count",
    "spark.largest_group" -> "count", "spark.jobs" -> "count", "spark.stages" -> "count",
    "spark.tasks" -> "count", "spark.executor_run_ms" -> "ms", "spark.shuffle_write_kb" -> "KiB",
    "spark.executor_busy_share" -> "ratio",
    // JVM, per round
    "jvm.alloc_mb" -> "MiB", "jvm.gc_ms" -> "ms",
    // self time per layer inside a round, from the spans
    "data.self_ms" -> "ms", "core.self_ms" -> "ms", "multi.self_ms" -> "ms",
    "spark.self_ms" -> "ms", "bench.self_ms" -> "ms",
    // the traced run itself
    "trace.plan_ms_p50" -> "ms", "trace.overhead_ms" -> "ms", "trace.rounds" -> "count",
  )
}
