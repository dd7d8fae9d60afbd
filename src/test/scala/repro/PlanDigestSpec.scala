package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{RandomBaseline, TcscParams}
import repro.core.multi.{GroupParallel, MultiOutcome, SerialMulti, TaskParallel}
import repro.core.st.SpatioTemporal
import repro.data.TcscGen

/** Pins the plans of every multi-task path on the T9 defaults (|T| = 40,
  * m = 80, |W| = 800, uniform, seed 17, 25 % budget) and on T11's default
  * scenario (|T| = 15, m = 40, |W| = 400, uniform, seed 19, 25 % budget).
  * A refactor that claims "same plans" must leave every value here as it
  * is: the counters, the executions (count and a checksum of (task, slot,
  * worker) in commit order) and the raw bits of q_sum and q_min.
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
}
