"""The tracer: span trees, auto-parenting, completeness checks."""

from repro.obs.span import NULL_TRACER, NullTracer, Tracer


def make_tracer(times=None):
    """A tracer over a scripted clock (pops *times*, then sticks)."""
    queue = list(times or [])

    def clock():
        return queue.pop(0) if len(queue) > 1 else (queue[0] if queue else 0.0)

    return Tracer(clock=clock)


class TestSpanLifecycle:
    def test_ids_are_sequential_and_first_span_is_root(self):
        t = Tracer()
        a = t.start("txn-1", "root")
        b = t.start("txn-1", "child")
        assert (a.span_id, b.span_id) == (1, 2)
        assert t.root("txn-1") is a
        assert a.parent_id == 0

    def test_later_spans_auto_parent_under_root(self):
        t = Tracer()
        root = t.start("txn", "tpnr.transaction")
        child = t.start("txn", "provider.upload")
        assert child.parent_id == root.span_id

    def test_explicit_parent_overrides_auto_parenting(self):
        t = Tracer()
        t.start("txn", "root")
        mid = t.start("txn", "mid")
        leaf = t.start("txn", "leaf", parent=mid)
        assert leaf.parent_id == mid.span_id

    def test_finish_stamps_end_and_status(self):
        t = make_tracer([1.0, 4.5])
        span = t.start("txn", "work")
        t.finish(span, status="aborted")
        assert span.finished
        assert span.end == 4.5
        assert span.duration == 3.5
        assert span.status == "aborted"

    def test_double_finish_keeps_first_outcome(self):
        t = make_tracer([0.0, 1.0, 9.0])
        span = t.start("txn", "work")
        t.finish(span, status="ok")
        t.finish(span, status="late-duplicate")
        assert (span.end, span.status) == (1.0, "ok")

    def test_events_carry_msg_id_and_attrs(self):
        t = Tracer()
        span = t.start("txn", "work")
        span.event(2.0, "upload sent", msg_id=7, kind="tpnr.data+nro")
        ev = span.events[0]
        assert (ev.time, ev.name, ev.msg_id) == (2.0, "upload sent", 7)
        assert ev.attrs == {"kind": "tpnr.data+nro"}
        dumped = span.to_dict()
        assert dumped["events"][0]["msg_id"] == 7


class TestTreeCompleteness:
    def test_unknown_trace_is_incomplete(self):
        assert Tracer().tree_complete("nope") is False

    def test_open_span_means_incomplete(self):
        t = Tracer()
        root = t.start("txn", "root")
        child = t.start("txn", "child")
        t.finish(root)
        assert t.tree_complete("txn") is False
        t.finish(child)
        assert t.tree_complete("txn") is True

    def test_orphan_parent_link_means_incomplete(self):
        t = Tracer()
        other = t.start("other-txn", "elsewhere")
        t.finish(other)
        span = t.start("txn", "root")
        t.finish(span)
        # Cross-trace parent link: structurally broken.
        bad = t.start("txn", "child", parent=other)
        t.finish(bad)
        assert t.tree_complete("txn") is False

    def test_trace_keeps_start_order_across_interleaved_traces(self):
        t = Tracer()
        t.start("b-txn", "x")
        t.start("a-txn", "y")
        t.start("b-txn", "z")
        assert [s.name for s in t.trace("b-txn")] == ["x", "z"]


class TestNullTracer:
    def test_disabled_and_accumulates_nothing(self):
        assert isinstance(NULL_TRACER, NullTracer)
        span = NULL_TRACER.start("txn", "work")
        span.event(1.0, "noop", msg_id=3)
        NULL_TRACER.finish(span)
        assert NULL_TRACER.spans == []

    def test_start_returns_shared_span(self):
        a = NULL_TRACER.start("x", "a")
        b = NULL_TRACER.start("y", "b")
        assert a is b
        assert a.events == []
        assert a.attrs == {}
