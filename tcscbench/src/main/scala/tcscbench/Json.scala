package tcscbench

/** Minimal JSON rendering for the result line and records. */
object Json {
  def str(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")

  /** A number with all its digits; non-finite values become null. */
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
