package tcscbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.util.concurrent.TimeUnit
import java.util.concurrent.atomic.AtomicReference
import scala.collection.mutable
import scala.io.Source
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The TCSC benchmark's entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--sha <git sha>]
  * }}}
  *
  * Set-up generates the raw inputs (eleven times; the median is `setup_s`).
  * Warm-up rounds follow, then rounds cycle the workload's pool for
  * `--seconds`, one caller, closed loop. Every round is validated; a round
  * that throws or fails validation counts as failed and is not timed.
  *
  * `--trace 0` reports the end-to-end metrics. On a workload with
  * `forks` > 1 the run is split over that many JVMs, started one after
  * another, each with its share of the seconds; the metrics are medians over
  * the rounds of all of them. `--trace 1` runs in one JVM, alternates
  * untraced and traced rounds and reports the per-layer metrics of the
  * traced ones, with tracing overhead as the difference of the two medians.
  * The last line of stdout is the JSON result; a record stamped with the
  * environment, and with `--trace 1` the spans, go to `--out`.
  */
object Main {
  private val SetupRepeats = 11
  /** Seconds all forks of a run may take together before the rest are stopped. */
  private val ForksLimitS = 170L

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: File, sha: String,
                        fork: Option[Int], // set in a fork: its number
                        offset: Int, // pool item the rounds start at
                        cover: Option[Seq[Int]]) // items to plan at least once; all if None

  /** What one JVM measured; a forked run merges its forks' measurements. */
  final case class Measured(
      setupS: Seq[Double],
      plain: Seq[Double], // untraced round times, ms
      commitRates: Seq[Double], // per untraced round, 1/s
      traced: Seq[Double],
      scored: Map[Int, Vector[Double]], // per planned pool item, Quality.qualityOf per task
      retainedMb: Seq[Double],
      attempted: Int,
      failed: Int,
      problems: Vector[String],
      warmupRounds: Int,
  )

  private val nothing = Measured(Seq.empty, Seq.empty, Seq.empty, Seq.empty, Map.empty, Seq.empty,
    0, 0, Vector.empty, 0)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(need("workload"), need("seed").toLong, seconds, trace,
      new File(kv.getOrElse("out", ".bench_build/results")), kv.getOrElse("sha", "unknown"),
      kv.get("fork").map(_.toInt), kv.get("offset").fold(0)(_.toInt),
      kv.get("cover").map(c => if (c == "-") Seq.empty else c.split(',').toSeq.map(_.toInt)))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    a.out.mkdirs()
    val nproc = Runtime.getRuntime.availableProcessors
    val w = Workload(a.workload, a.seed, nproc, a.out)
    val layers = new Layers
    val tracer = new Tracer(enabled = true)
    if (a.fork.isDefined) {
      val m = try measure(a, w, layers, tracer) finally w.close()
      emit(m)
    } else if (!a.trace && w.forks > 1) {
      report(a, w, nproc, forked(a, w), layers, tracer)
    } else {
      val m = try measure(a, w, layers, tracer) finally w.close()
      report(a, w, nproc, m, layers, tracer)
    }
  }

  private def measure(a: Args, w: Workload, layers: Layers, tracer: Tracer): Measured = {
    val k = w.params.k
    val off = new Tracer(enabled = false)
    val problems = Vector.newBuilder[String]
    var attempted = 0
    var failed = 0
    val firstPlan = mutable.HashMap.empty[Int, Planned]

    // ---- set-up ---------------------------------------------------------
    val setupS = (1 to SetupRepeats).map { _ =>
      val t0 = System.nanoTime(); w.setup(); (System.nanoTime() - t0) / 1e9
    }

    /** One validated round; its wall time in ms, or None when it failed. */
    def round(no: Int, item: Int, traced: Boolean): Option[Double] = {
      val tr = if (traced) tracer else off
      if (traced) w match { case s: SparkScore => s.beforeTraced(); case _ => }
      tr.beginRound(no)
      val alloc0 = if (traced) JvmMeter.allocatedBytes() else 0L
      val gc0 = JvmMeter.gcMillis()
      val t0 = System.nanoTime()
      val res = try Right(tr.span("round")(w.plan(item, tr))) catch { case NonFatal(e) => Left(e) }
      val ms = (System.nanoTime() - t0) / 1e6
      attempted += 1
      val found = res match {
        case Left(e) => Vector(s"round $no (item $item) threw: $e")
        case Right(p) =>
          tr.span("bench.validate") {
            val bad = PlanCheck.check(p.instances, p.plan, k, p.rankZero)
            val again = firstPlan.get(item) match {
              case Some(f) if f.plan.executions != p.plan.executions || f.scored != p.scored =>
                Vector("plan differs from the earlier plan of the same input")
              case _ => Vector.empty
            }
            (bad ++ again).map(s => s"round $no (item $item): $s")
          }
      }
      if (found.nonEmpty) { failed += 1; problems ++= found.take(5); None }
      else {
        val p = res.toOption.get
        firstPlan.getOrElseUpdate(item, p)
        if (traced) {
          layers.add("jvm.alloc_mb", (JvmMeter.allocatedBytes() - alloc0) / (1024.0 * 1024.0))
          layers.add("jvm.gc_ms", (JvmMeter.gcMillis() - gc0).toDouble)
          layers.addAll(p.layers)
          w.probe(item, p, tracer, layers)
        }
        Some(ms)
      }
    }

    // ---- warm-up, then the timed phase --------------------------------
    def poolItem(i: Int) = (a.offset + i) % w.poolSize
    var no = 0
    while (no < w.warmupRounds) { round(no, poolItem(no), traced = false); no += 1 }
    val plain = mutable.ArrayBuffer.empty[Double]  // untraced round times
    val traced = mutable.ArrayBuffer.empty[Double]
    val commitRates = mutable.ArrayBuffer.empty[Double] // per untraced round, 1/s
    val deadline = System.nanoTime() + (a.seconds * 1e9).toLong
    var timed = 0
    def missing = plain.isEmpty || (a.trace && traced.isEmpty)
    while (System.nanoTime() < deadline || (missing && timed < 4 * w.poolSize)) {
      // Traced runs plan each item twice in a row, untraced then traced, so
      // both sets of rounds see the same inputs.
      val item = poolItem(w.warmupRounds + (if (a.trace) timed / 2 else timed))
      val isTraced = a.trace && timed % 2 == 1
      round(no, item, isTraced).foreach { ms =>
        if (isTraced) traced += ms
        else { plain += ms; commitRates += firstPlan(item).commits / (ms / 1e3) }
      }
      no += 1; timed += 1
    }
    val retainedMb = JvmMeter.retainedHeapMb()

    // The items to cover are planned at least once for the quality metrics.
    for (item <- a.cover.getOrElse(0 until w.poolSize) if !firstPlan.contains(item)) {
      round(no, item, traced = false); no += 1
    }
    if (firstPlan.contains(0)) problems ++= w.runCheck(firstPlan.toMap, a.trace, layers)

    Measured(setupS, plain.toSeq, commitRates.toSeq, traced.toSeq,
      firstPlan.map { case (i, p) => i -> p.scored }.toMap, Seq(retainedMb),
      attempted, failed, problems.result(), w.warmupRounds)
  }

  // ---- forks ------------------------------------------------------------

  /** An untraced run split over `w.forks` JVMs, started one after another.
    * Each sets up, warms up and measures its share of the seconds, starting
    * at its own place in the pool; the last also plans any item the others
    * did not reach. One JVM's compiled code and memory layout can set the
    * speed of all its rounds, so a run measured in one JVM varies more from
    * run to run than one whose rounds come from several.
    */
  private def forked(a: Args, w: Workload): Measured = {
    val n = w.forks
    val java = new File(System.getProperty("java.home"), "bin/java").getPath
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
    val parts = mutable.ArrayBuffer.empty[Measured]
    val deadline = System.nanoTime() + ForksLimitS * 1000000000L
    for (i <- 0 until n) {
      val covered = parts.flatMap(_.scored.keys).toSet
      val cover = if (i < n - 1) "-" else
        Some((0 until w.poolSize).filterNot(covered).mkString(",")).filter(_.nonEmpty).getOrElse("-")
      val cmd = Seq(java) ++ jvmArgs ++ Seq("-cp", System.getProperty("java.class.path"),
        "tcscbench.Main", "--workload", a.workload, "--seed", a.seed.toString,
        "--seconds", (a.seconds / n).toString, "--trace", "0",
        "--out", a.out.getPath, "--sha", a.sha,
        "--fork", i.toString, "--offset", (i * w.poolSize / n).toString, "--cover", cover)
      val outFile = new File(a.out, s"${a.workload}-seed${a.seed}-fork$i.txt")
      val leftS = (deadline - System.nanoTime()) / 1000000000L
      parts += (if (leftS > 0) runFork(cmd, outFile, leftS)
                else failedFork(nothing, s"not started: the forks ran past ${ForksLimitS}s"))
    }
    merge(parts.toSeq)
  }

  /** The fork running now, stopped by the shutdown hook if the run is killed. */
  private val running = new AtomicReference[Process]
  sys.addShutdownHook(Option(running.get).foreach { p => p.destroyForcibly(); p.waitFor() })

  private def runFork(cmd: Seq[String], outFile: File, limitS: Long): Measured = {
    val p = new ProcessBuilder(cmd: _*)
      .redirectError(ProcessBuilder.Redirect.INHERIT)
      .redirectOutput(outFile)
      .start()
    running.set(p)
    val done = try p.waitFor(limitS, TimeUnit.SECONDS) finally {
      if (p.isAlive) { p.destroyForcibly(); p.waitFor() }
      running.set(null)
    }
    val src = Source.fromFile(outFile, "UTF-8")
    val m = try unemit(src.getLines().toVector) finally src.close()
    if (!done) failedFork(m.getOrElse(nothing), s"stopped after ${limitS}s")
    else if (p.exitValue != 0) failedFork(m.getOrElse(nothing), s"exited with code ${p.exitValue}")
    else m.getOrElse(failedFork(nothing, "printed no measurement"))
  }

  /** A fork that did not finish counts as one failed operation. */
  private def failedFork(m: Measured, why: String): Measured =
    m.copy(attempted = m.attempted + 1, failed = m.failed + 1, problems = m.problems :+ why)

  /** A fork's measurement on stdout, one `@`-tagged line per value. */
  private def emit(m: Measured): Unit = {
    m.setupS.foreach(s => println(s"@setup $s"))
    m.plain.zip(m.commitRates).foreach { case (ms, r) => println(s"@round $ms $r") }
    m.scored.foreach { case (i, q) => println(s"@scored $i ${q.mkString(" ")}".trim) }
    m.retainedMb.foreach(mb => println(s"@heap $mb"))
    println(s"@counts ${m.attempted} ${m.failed} ${m.warmupRounds}")
    m.problems.foreach(p => println(s"@problem ${p.replace('\n', ' ')}"))
    println("@end")
  }

  /** The measurement `emit` printed; None if its last line is missing. */
  private def unemit(lines: Seq[String]): Option[Measured] = {
    val setup, plain, rates, heap = mutable.ArrayBuffer.empty[Double]
    val scored = mutable.LinkedHashMap.empty[Int, Vector[Double]]
    val problems = Vector.newBuilder[String]
    var counts = Array(0, 0, 0)
    var ended = false
    for (l <- lines) {
      val f = l.split(' ')
      f(0) match {
        case "@setup"   => setup += f(1).toDouble
        case "@round"   => plain += f(1).toDouble; rates += f(2).toDouble
        case "@scored"  => scored(f(1).toInt) = f.drop(2).map(_.toDouble).toVector
        case "@heap"    => heap += f(1).toDouble
        case "@counts"  => counts = f.drop(1).map(_.toInt)
        case "@problem" => problems += l.drop("@problem ".length)
        case "@end"     => ended = true
        case _ =>
      }
    }
    if (!ended) None
    else Some(Measured(setup.toSeq, plain.toSeq, rates.toSeq, Seq.empty, scored.toMap, heap.toSeq,
      counts(0), counts(1), problems.result(), counts(2)))
  }

  /** One measurement of the forks' rounds. Every fork plans the same inputs,
    * so an item planned by two forks must score the same in both.
    */
  private def merge(parts: Seq[Measured]): Measured = {
    val scored = mutable.LinkedHashMap.empty[Int, Vector[Double]]
    val problems = Vector.newBuilder[String]
    for ((m, i) <- parts.zipWithIndex) {
      problems ++= m.problems.map(p => s"fork $i: $p")
      for ((item, q) <- m.scored) scored.get(item) match {
        case Some(q0) if q0 != q => problems += s"fork $i: pool item $item scores differently than in an earlier fork"
        case Some(_) =>
        case None => scored(item) = q
      }
    }
    Measured(parts.flatMap(_.setupS), parts.flatMap(_.plain), parts.flatMap(_.commitRates), Seq.empty,
      scored.toMap, parts.flatMap(_.retainedMb), parts.map(_.attempted).sum, parts.map(_.failed).sum,
      problems.result(), parts.map(_.warmupRounds).sum)
  }

  // ---- report -----------------------------------------------------------

  private def report(a: Args, w: Workload, nproc: Int, m: Measured, layers: Layers, tracer: Tracer): Unit = {
    val qs = (0 until w.poolSize).flatMap(i => m.scored.getOrElse(i, Vector.empty))
    val correct = m.failed == 0 && m.problems.isEmpty && m.plain.nonEmpty &&
      (!a.trace || m.traced.nonEmpty) && (0 until w.poolSize).forall(m.scored.contains)

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) {
        Seq(
          ("plan_ms_p50", Stats.medianOrNaN(m.plain), "ms"),
          ("commits_per_s", Stats.medianOrNaN(m.commitRates), "1/s"),
          ("q_sum", qs.sum, "bits"),
          ("q_min", if (qs.isEmpty) Double.NaN else qs.min, "bits"),
          ("setup_s", Stats.medianOrNaN(m.setupS), "s"),
          ("retained_heap_mb", Stats.medianOrNaN(m.retainedMb), "MiB"),
        )
      } else perLayer(layers, tracer, m.plain, m.traced)

    val stamp = Seq(
      "workload" -> a.workload,
      "seed" -> a.seed.toString,
      "trace" -> (if (a.trace) "1" else "0"),
      "nproc" -> nproc.toString,
      "xmx" -> xmx,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "git_sha" -> a.sha,
      "spark_master" -> w.stamp.getOrElse("spark_master", "none"),
      "spark_shuffle_partitions" -> w.stamp.getOrElse("spark_shuffle_partitions", "none"),
    )
    val counts = Seq(
      "forks" -> (if (a.trace) 1 else w.forks),
      "warmup_rounds" -> m.warmupRounds, "timed_rounds_untraced" -> m.plain.length,
      "timed_rounds_traced" -> m.traced.length, "pool_size" -> w.poolSize)

    // ---- print and record -----------------------------------------------
    stamp.foreach { case (k, v) => println(f"# $k%-26s $v") }
    counts.foreach { case (k, v) => println(f"# $k%-26s $v") }
    m.problems.take(20).foreach(p => println(s"! $p"))
    metrics.foreach { case (n, v, u) => println(f"$n%-28s $v%16.6f $u") }

    val record = new PrintWriter(new File(a.out, s"${a.workload}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json"))
    try record.println(Json.obj(Seq(
      "stamp" -> Json.obj(stamp.map { case (k, v) => k -> Json.str(v) }),
      "counts" -> Json.obj(counts.map { case (k, v) => k -> v.toString }),
      "problems" -> m.problems.map(Json.str).mkString("[", ",", "]"),
      "round_ms_untraced" -> m.plain.map(Json.num).mkString("[", ",", "]"),
      "round_ms_traced" -> m.traced.map(Json.num).mkString("[", ",", "]"),
    ) ++ result(correct, m.attempted, m.failed, metrics)))
    finally record.close()
    if (a.trace) {
      val f = new PrintWriter(new File(a.out, s"${a.workload}-seed${a.seed}-spans.json"))
      try f.print(Tracer.toJson(tracer.all)) finally f.close()
    }
    println(Json.obj(result(correct, m.attempted, m.failed, metrics)))
  }

  private def result(correct: Boolean, attempted: Int, failed: Int,
                     metrics: Seq[(String, Double, String)]): Seq[(String, String)] = Seq(
    "correct" -> correct.toString,
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
      n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    }),
  )

  private def xmx: String =
    ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filter(_.startsWith("-Xmx")).lastOption.map(_.drop(4))
      .getOrElse(s"${Runtime.getRuntime.maxMemory / (1024 * 1024)}m")

  /** Medians over traced rounds of every per-layer metric; 0 where a layer
    * does no work in this workload.
    */
  private def perLayer(layers: Layers, tracer: Tracer, plain: Seq[Double],
                       traced: Seq[Double]): Seq[(String, Double, String)] = {
    val self = Tracer.roundSelfMs(tracer.all)
    val tracedMs = Stats.medianOrNaN(traced)
    val plainMs = Stats.medianOrNaN(plain)
    PerLayer.all.map { case (name, unit) =>
      val v = name match {
        case "trace.plan_ms_p50" => tracedMs
        case "trace.overhead_ms" => tracedMs - plainMs
        case "trace.rounds"      => traced.length.toDouble
        case n if n.endsWith(".self_ms") =>
          self.get(n.stripSuffix(".self_ms")).map(Stats.median).getOrElse(0.0)
        case n => layers.median(n).getOrElse(0.0)
      }
      (name, v, unit)
    }
  }
}
