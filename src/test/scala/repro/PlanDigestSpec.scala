package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AssignmentResult, ExactOpt, GreedyIndexed, GreedyNaive, GreedyStats, RandomBaseline, TaskInstance, TcscParams}
import repro.core.multi.{GroupParallel, MultiOutcome, SerialMulti, TaskParallel}
import repro.core.st.SpatioTemporal
import repro.data.TcscGen

/** Pins the plans of every multi-task path on the T9 defaults (|T| = 40,
  * m = 80, |W| = 800, uniform, seed 17, 25 % budget) and on T11's default
  * scenario (|T| = 15, m = 40, |W| = 400, uniform, seed 19, 25 % budget),
  * and the single-task plans of Approx and Approx* on T6's instances (5
  * tasks, m = 14, |W| = 300, uniform, seed 7) and T8's (2 tasks, m = 300,
  * |W| = 1000, uniform, seed 13) at 12.5, 25 and 50 % of each task's full
  * cost, with OPT and Rand's 20-seed mean on T6's, and OPT on T11's tiny
  * instance (|T| = 2, m = 6, |W| = 60, uniform, seed 19, 25 % budget). A
  * refactor that claims "same plans" must leave every value here as it is:
  * the counters, the executions (count and a checksum of (task, slot,
  * worker) in commit order) and the raw bits of q_sum and q_min; for a
  * single task, the iterations, the Δq evaluations, a checksum of every
  * slot order with the raw bits of each cost and quality, and the bits of
  * the summed cost and quality.
  */
class PlanDigestSpec extends AnyFunSuite {
  import PlanDigestSpec._
  private val params = TcscParams()

  test("T9 defaults: every multi-task path plans as pinned") {
    val insts = TcscGen.scenario(40, 80, 800, TcscGen.Uniform, seed = 17).instances
    val b = TcscGen.budgetFor(insts, 0.25)
    val got = Seq(
      "task" -> TaskParallel.run(insts, b, params)._1,
      "task, priority off" -> TaskParallel.run(insts, b, params, priority = false)._1,
      "basic" -> SerialMulti.basic(insts, b, params),
      "MMQM" -> SerialMulti.minQuality(insts, b, params, indexed = true),
      "MMQM naive" -> SerialMulti.minQuality(insts, b, params, indexed = false),
      "Rand" -> RandomBaseline.multi(insts, b, params, seed = 117),
      "group" -> GroupParallel.run(insts, b, params),
    )
    for ((path, out) <- got) assert(Digest(out) == T9(path), path)
  }

  test("T11 default: SApprox, Approx and Rand plan as pinned") {
    val insts = TcscGen.scenario(15, 40, 400, TcscGen.Uniform, seed = 19).instances
    val b = TcscGen.budgetFor(insts, 0.25)
    val tasks = insts.map(_.task).toIndexedSeq
    val (s, st) = SpatioTemporal.sApprox(insts, b, params.k, 0.3, 0.7)
    val (t, _) = SpatioTemporal.sApprox(insts, b, params.k, 0.0, 1.0)
    val r = RandomBaseline.multi(insts, b, params, seed = 119)
    for ((path, out) <- Seq("SApprox" -> s, "Approx" -> t, "Rand" -> r)) {
      assert(Digest(out) == T11(path), path)
      val scored = SpatioTemporal.scoreUnder(tasks, out.executions, params.k, 0.3, 0.7)
      assert(bits(scored) == T11Scored(path), s"$path scored under (0.3, 0.7)")
    }
    assert(bits(st.quality) == T11Scored("SApprox state"), "SApprox's running total")
  }

  test("T6 and T8 instances: Approx and Approx* plan as pinned") {
    for ((name, insts) <- Seq(
           "T6" -> TcscGen.scenario(5, 14, 300, TcscGen.Uniform, seed = 7).instances,
           "T8" -> TcscGen.scenario(2, 300, 1000, TcscGen.Uniform, seed = 13).instances);
         frac <- Seq(0.125, 0.25, 0.5)) {
      def single(run: (TaskInstance, Double) => (AssignmentResult, GreedyStats)) =
        Single(insts.map(inst => run(inst, inst.fullCost * frac)))
      val approx = single { (inst, b) => val o = GreedyNaive.run(inst, b, params); (o.result, o.stats) }
      val star = single { (inst, b) => val o = GreedyIndexed.run(inst, b, params); (o.result, o.stats) }
      assert(approx == Singles((name, frac, "Approx")), s"$name at $frac: Approx")
      assert(star == Singles((name, frac, "Approx*")), s"$name at $frac: Approx*")
    }
  }

  test("T6 instances: OPT plans and Rand's mean quality as pinned") {
    val insts = TcscGen.scenario(5, 14, 300, TcscGen.Uniform, seed = 7).instances
    for (frac <- Seq(0.125, 0.25, 0.5)) {
      val opt = Plans(insts.map(inst => ExactOpt.run(inst, inst.fullCost * frac, params)))
      assert(opt == T6Opt(frac), s"OPT at $frac")
      val rand = insts.map(inst => RandomBaseline.meanQuality(inst, inst.fullCost * frac, params))
      assert((rand.foldLeft(17L)((h, q) => h * 31 + bits(q)), bits(rand.sum)) == T6RandMean(frac),
        s"Rand at $frac")
    }
  }

  test("T11 tiny instance: OPT scores as pinned") {
    val insts = TcscGen.scenario(2, 6, 60, TcscGen.Uniform, seed = 19).instances
    val tasks = insts.map(_.task)
    val (q, _) = ExactOpt.best(insts, TcscGen.budgetFor(insts, 0.25))(
      SpatioTemporal.scoreUnder(tasks, _, params.k, 0.3, 0.7))
    assert(bits(q) == 0x400c95feaee7ee32L)
  }
}

object PlanDigestSpec {
  def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  final case class Digest(commits: Int, evals: Long, conflicts: Long, executions: Int,
                          checksum: Long, qSumBits: Long, qMinBits: Long)

  object Digest {
    def apply(out: MultiOutcome): Digest =
      Digest(out.commits, out.evals, out.conflicts, out.executions.size,
        out.executions.foldLeft(17L)((h, e) => ((h * 31 + e.taskId) * 31 + e.slot) * 31 + e.workerId),
        bits(out.qSum), bits(out.qMin))
  }

  /** Single-task plans, one per task in order: a checksum of each slot
    * order with the raw bits of its cost and quality, and the bits of the
    * summed cost and quality.
    */
  final case class Plans(checksum: Long, costBits: Long, qualityBits: Long)

  object Plans {
    def apply(runs: Seq[AssignmentResult]): Plans = {
      val checksum = runs.foldLeft(17L) { (h0, r) =>
        val h = r.executedSlots.foldLeft(h0)((h, j) => h * 31 + j)
        (h * 31 + bits(r.totalCost)) * 31 + bits(r.quality)
      }
      Plans(checksum, bits(runs.map(_.totalCost).sum), bits(runs.map(_.quality).sum))
    }
  }

  /** Single-task runs, one per task in order, folded into one digest. */
  final case class Single(iterations: Int, evals: Long, checksum: Long,
                          costBits: Long, qualityBits: Long)

  object Single {
    def apply(runs: Seq[(AssignmentResult, GreedyStats)]): Single = {
      val p = Plans(runs.map(_._1))
      Single(runs.map(_._2.iterations).sum, runs.map(_._2.candidateEvaluations).sum,
        p.checksum, p.costBits, p.qualityBits)
    }
  }

  // A change that alters any plan here must say so and pin the new values.
  val T9: Map[String, Digest] = Map(
    "task" -> Digest(1293, 15718L, 585L, 1293, -3579468523384673645L, 0x406f2e8a5cb36661L, 0x4018d9ea179d9b40L),
    "task, priority off" -> Digest(1293, 43634L, 585L, 1293, -3579468523384673645L, 0x406f2e8a5cb36661L, 0x4018d9ea179d9b40L),
    "basic" -> Digest(1293, 3299222L, 585L, 1293, -3579468523384673645L, 0x406f2e8a5cb36661L, 0x4018d9ea179d9b40L),
    "MMQM" -> Digest(1278, 82433L, 601L, 1278, -1695107645634363365L, 0x406f2d39e223cb20L, 0x4018ee60fd58aa1bL),
    "MMQM naive" -> Digest(1278, 82433L, 601L, 1278, -1695107645634363365L, 0x406f2d39e223cb20L, 0x4018ee60fd58aa1bL),
    "Rand" -> Digest(776, 0L, 429L, 776, -2022047941264280057L, 0x406e7d59e699ea28L, 0x40178adaf59c39deL),
    "group" -> Digest(1293, 15718L, 585L, 1293, -3579468523384673645L, 0x406f2e8a5cb36661L, 0x4018d9ea179d9b40L),
  )
  val T11: Map[String, Digest] = Map(
    "SApprox" -> Digest(261, 122371L, 28L, 261, -587786127532993791L, 0x4052f3e3b4472d84L, 0x40132c8dad53f374L),
    "Approx" -> Digest(249, 117966L, 28L, 249, -1287550381363881801L, 0x40537171f06c8816L, 0x40146073d1ee8093L),
    "Rand" -> Digest(152, 0L, 24L, 152, 6489001141840752006L, 0x40529b6caa8cc724L, 0x401318e8ad2ba4f9L),
  )
  val T11Scored: Map[String, Long] = Map(
    "SApprox" -> 0x4052f3e3b4472d86L,
    "Approx" -> 0x4052d1071e252e29L,
    "Rand" -> 0x405174f4a3c842eeL,
    "SApprox state" -> 0x4052f3e3b4472d86L,
  )
  val Singles: Map[(String, Double, String), Single] = Map(
    ("T6", 0.125, "Approx") -> Single(16, 143L, -9019756662960642842L, 0x3fd31a2c4e8407e9L, 0x402ed66d9d50be18L),
    ("T6", 0.125, "Approx*") -> Single(16, 46L, -9019756662960642842L, 0x3fd31a2c4e8407e9L, 0x402ed66d9d50be18L),
    ("T6", 0.25, "Approx") -> Single(28, 294L, 4412577317961053044L, 0x3fe59a3ac6c7a2ecL, 0x4031864ccc12398cL),
    ("T6", 0.25, "Approx*") -> Single(28, 136L, 4429508343667732565L, 0x3fe59a3ac6c7a2ecL, 0x4031864ccc12398cL),
    ("T6", 0.5, "Approx") -> Single(44, 427L, 256148854311130748L, 0x3ff6573d41716162L, 0x40326aff5e6cb45aL),
    ("T6", 0.5, "Approx*") -> Single(44, 210L, -8865412902844663173L, 0x3ff6573d41716162L, 0x40326aff5e6cb459L),
    ("T8", 0.125, "Approx") -> Single(166, 42524L, 3427593892659680212L, 0x401b9d235db32356L, 0x4030590d2ac7f362L),
    ("T8", 0.125, "Approx*") -> Single(166, 3110L, -6592588893607982850L, 0x401b9d235db32356L, 0x4030590d2ac7f35aL),
    ("T8", 0.25, "Approx") -> Single(258, 60651L, -8304107370912033394L, 0x402bb7fadeccd0deL, 0x403066a097629632L),
    ("T8", 0.25, "Approx*") -> Single(258, 3730L, -1584348700170373257L, 0x402bb7fadeccd0deL, 0x403066a097629627L),
    ("T8", 0.5, "Approx") -> Single(414, 81354L, 6598042216982566035L, 0x403bb4a57a397d76L, 0x40306fa0019b43beL),
    ("T8", 0.5, "Approx*") -> Single(414, 4234L, 8302128803914891789L, 0x403bb4a57a397d76L, 0x40306fa0019b439eL),
  )
  val T6Opt: Map[Double, Plans] = Map(
    0.125 -> Plans(-7464425845277219228L, 0x3fd64ad2a1cf76e7L, 0x402eeffa6803a48eL),
    0.25 -> Plans(-2560764296025061436L, 0x3fe6a6d303f4f384L, 0x40318db1e8a4ab87L),
    0.5 -> Plans(7283262455718716470L, 0x3ff79d88d9770509L, 0x4032799af45dab42L),
  )
  /** `RandomBaseline.meanQuality` on T6's instances: a checksum of each
    * task's bits and the bits of their sum.
    */
  val T6RandMean: Map[Double, (Long, Long)] = Map(
    0.125 -> (4859903488909769345L, 0x402a0a2b279a4aaeL),
    0.25 -> (5656075984564903307L, 0x402fce60de87d76eL),
    0.5 -> (784481733373079443L, 0x4031e3cb0a276e96L),
  )
}
