package perfbench

/** Just enough JSON writing for the result line, the run record and the
  * span file; values are pre-rendered strings.
  */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(x: Long): String = x.toString

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a JSON number: $x")
    x.toString
  }

  def bool(b: Boolean): String = b.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
