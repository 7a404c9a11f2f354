package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, a: Long, b: Long) = Span(id, s"s$id", parent, a, b)

  test("self time subtracts children once where they overlap") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 40, 70))
    val self = Trace.selfNs(spans)
    assert(self(0) == 100 - 60)
    assert(self(1) == 40 && self(2) == 30)
  }

  test("gaps between children count as the parent's own time") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 20), span(2, 0, 50, 60), span(3, 0, 90, 100))
    assert(Trace.selfNs(spans)(0) == 70)
  }

  test("a child is clipped to its parent's interval and nested children count for their own parent only") {
    val spans = Seq(span(0, -1, 100, 200), span(1, 0, 50, 120), span(2, 0, 190, 260),
      span(3, 1, 100, 120), span(4, 0, 130, 140), span(5, 0, 135, 138))
    val self = Trace.selfNs(spans)
    assert(self(0) == 100 - 20 - 10 - 10)
    assert(self(1) == 70 - 20)
    assert(self(3) == 20)
  }

  test("spans nest by scope, recorded intervals attach to the innermost open span, counters are deltas") {
    var c = 0.0
    val tracer = new Tracer(() => { c += 1; Map("n" -> c) })
    tracer.span("outer") {
      tracer.span("inner")(tracer.record("call", 1L, 2L))
      tracer.record("call", 3L, 4L)
    }
    val byName = tracer.spans.groupBy(_.name)
    val outer = byName("outer").head
    val inner = byName("inner").head
    assert(outer.parent == -1 && inner.parent == outer.id)
    assert(byName("call").map(_.parent).toSet == Set(inner.id, outer.id))
    assert(inner.counters("n") == 1.0 && outer.counters("n") == 3.0)
    assert(Trace.seconds(tracer.spans, "call") == 2e-9)
  }
}
