package tcscbench

import scala.collection.mutable.ArrayBuffer

/** In-memory spans recorded by the benchmark around its calls into the
  * program's layers. A span has a name, start, end, parent and the id of
  * the round it belongs to; spans are written out once, when the run ends.
  *
  * The disabled tracer records nothing and costs one branch per span, so
  * the untraced run times the program alone.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans = new ArrayBuffer[Span]
  private var stack: List[Int] = Nil
  private var round = -1

  def beginRound(id: Int): Unit = { round = id; stack = Nil }

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val idx = spans.length
      val parent = stack.headOption.getOrElse(-1)
      spans += Span(idx, name, round, parent, System.nanoTime(), 0L)
      stack = idx :: stack
      try f
      finally {
        stack = stack.tail
        spans(idx) = spans(idx).copy(end = System.nanoTime())
      }
    }

  def all: Vector[Span] = spans.toVector
}

object Tracer {
  final case class Span(id: Int, name: String, round: Int, parent: Int,
                        start: Long, end: Long) {
    def nanos: Long = end - start
  }

  /** Layer of a span: the part of its name before the first dot (`data`,
    * `core`, `multi` for `repro.core.multi`, `spark`, `bench`).
    */
  def layer(name: String): String = name.takeWhile(_ != '.')

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children (children of one span never overlap, since
    * spans are recorded by a single caller).
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val childCover = spans.filter(_.parent >= 0).groupMapReduce(_.parent)(_.nanos)(_ + _)
    spans.map(s => s.id -> (s.nanos - childCover.getOrElse(s.id, 0L))).toMap
  }

  /** Per layer, the self time in ms of each traced round, counting only
    * spans inside a `round` span (probes after a round are left out). The
    * `round` span's own self time is the benchmark's, layer `bench`.
    */
  def roundSelfMs(spans: Seq[Span]): Map[String, Seq[Double]] = {
    val byId = spans.map(s => s.id -> s).toMap
    def root(s: Span): Span = if (s.parent < 0) s else root(byId(s.parent))
    val self = selfNanos(spans)
    val inRound = spans.filter(s => root(s).name == "round")
    val rounds = inRound.map(_.round).distinct
    val perRoundLayer = inRound.groupMapReduce(s =>
      (s.round, if (s.name == "round") "bench" else layer(s.name)))(s => self(s.id))(_ + _)
    perRoundLayer.keys.map(_._2).toSeq.distinct.map { l =>
      l -> rounds.map(r => perRoundLayer.getOrElse((r, l), 0L) / 1e6)
    }.toMap
  }

  def toJson(spans: Seq[Span]): String =
    spans.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","round":${s.round},"parent":${s.parent},"start_ns":${s.start},"end_ns":${s.end}}"""
    }.mkString("[\n", ",\n", "\n]\n")
}
