"""Exporters: JSONL, Prometheus text exposition, human tables."""

import json

from repro.obs.exporters import (
    metrics_jsonl,
    prometheus_text,
    span_tree_text,
    spans_jsonl,
    summary_table,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer


def seeded_registry() -> MetricsRegistry:
    reg = MetricsRegistry(clock=lambda: 2.5)
    reg.counter("msgs.sent", kind="tpnr.data+nro").inc(3)
    reg.gauge("journal.pending").set(2)
    h = reg.histogram("latency.seconds", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    return reg


class TestJsonl:
    def test_spans_jsonl_one_valid_object_per_span(self):
        t = Tracer()
        root = t.start("txn", "root")
        t.start("txn", "child")
        t.finish(root)
        lines = spans_jsonl(t).splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["span_id"] for p in parsed] == [1, 2]
        assert all(p["trace_id"] == "txn" for p in parsed)

    def test_metrics_jsonl_and_deterministic_filter(self):
        reg = seeded_registry()
        reg.counter("wall.seconds").inc(0.01)
        reg.mark_nondeterministic("wall.seconds")
        all_names = {json.loads(l)["name"] for l in metrics_jsonl(reg).splitlines()}
        det_names = {
            json.loads(l)["name"]
            for l in metrics_jsonl(reg, deterministic_only=True).splitlines()
        }
        assert "wall.seconds" in all_names
        assert "wall.seconds" not in det_names
        assert {"msgs.sent", "journal.pending", "latency.seconds"} <= det_names


class TestPrometheusText:
    def test_counters_gauges_and_sanitized_names(self):
        text = prometheus_text(seeded_registry())
        assert "# TYPE msgs_sent counter" in text
        assert 'msgs_sent{kind="tpnr.data+nro"} 3' in text
        assert "# TYPE journal_pending gauge" in text
        assert "journal_pending 2" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        lines = prometheus_text(seeded_registry()).splitlines()
        assert 'latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'latency_seconds_bucket{le="1"} 2' in lines
        assert 'latency_seconds_bucket{le="+Inf"} 3' in lines
        assert "latency_seconds_count 3" in lines
        assert any(l.startswith("latency_seconds_sum ") for l in lines)

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestSketchExport:
    def sketched_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry(clock=lambda: 1.0)
        s = reg.sketch("session.latency", shard="0")
        for v in (0.5, 1.0, 2.0, 30.0):
            s.observe(v)
        return reg

    def test_prometheus_exports_sketch_as_summary(self):
        lines = prometheus_text(self.sketched_registry()).splitlines()
        assert "# TYPE session_latency summary" in lines
        quantile_lines = [l for l in lines if 'quantile=' in l]
        assert len(quantile_lines) == 3  # p50, p90, p99
        assert all('shard="0"' in l for l in quantile_lines)
        assert 'session_latency_count{shard="0"} 4' in lines
        assert any(l.startswith('session_latency_sum{shard="0"} ') for l in lines)

    def test_summary_table_headline(self):
        text = summary_table(self.sketched_registry())
        assert "sketch" in text
        assert "n=4" in text and "p50=" in text and "p99=" in text

    def test_metrics_jsonl_rows_round_trip(self):
        from repro.obs.sketch import QuantileSketch

        reg = self.sketched_registry()
        (row,) = [json.loads(l) for l in metrics_jsonl(reg).splitlines()]
        assert row["kind"] == "sketch"
        clone = QuantileSketch.from_snapshot(row)
        live = reg.sketch("session.latency", shard="0")
        assert clone.quantile(0.99) == live.quantile(0.99)


class TestExportDeterminism:
    """Byte-identical exports regardless of instrument creation order
    and label insertion order (ISSUE 8 satellite)."""

    def populate(self, reg: MetricsRegistry, reverse: bool) -> MetricsRegistry:
        def fills():
            yield lambda: reg.counter("verdicts", outcome="ok", zone="a").inc(3)
            yield lambda: reg.counter("verdicts", zone="a", outcome="bad").inc()
            yield lambda: reg.gauge("slo.budget_remaining", slo="x").set(0.5)
            yield lambda: reg.histogram("lat", buckets=(1.0,), zone="a").observe(0.4)
            yield lambda: [reg.sketch("sk", shard=s).observe(v)
                           for s, v in (("1", 2.0), ("0", 0.5))]
        steps = list(fills())
        for step in reversed(steps) if reverse else steps:
            step()
        return reg

    def test_jsonl_and_prometheus_ignore_creation_order(self):
        forward = self.populate(MetricsRegistry(clock=lambda: 2.0), reverse=False)
        backward = self.populate(MetricsRegistry(clock=lambda: 2.0), reverse=True)
        assert metrics_jsonl(forward) == metrics_jsonl(backward)
        assert prometheus_text(forward) == prometheus_text(backward)
        assert summary_table(forward) == summary_table(backward)

    def test_slo_mirror_rows_are_deterministic(self):
        from repro.obs.slo import CounterRatioSLI, SLOManager, SLOSpec

        def run() -> MetricsRegistry:
            reg = MetricsRegistry(clock=lambda: 3.0)
            mgr = SLOManager(reg, clock=lambda: 3.0)
            mgr.add(SLOSpec("avail", objective=0.9,
                            sli=CounterRatioSLI(reg, "good", "bad")))
            reg.counter("good").inc(9)
            reg.counter("bad").inc(1)
            mgr.poll()
            return reg

        first, second = run(), run()
        assert metrics_jsonl(first) == metrics_jsonl(second)
        assert prometheus_text(first) == prometheus_text(second)
        assert "slo_burn_rate" in prometheus_text(first)


class TestHumanRenderings:
    def test_summary_table_lists_every_instrument(self):
        text = summary_table(seeded_registry(), title="obs test")
        assert "obs test" in text
        for name in ("msgs.sent", "journal.pending", "latency.seconds"):
            assert name in text
        assert "n=3" in text  # histogram headline

    def test_span_tree_text_indents_children_and_events(self):
        t = Tracer()
        root = t.start("txn-9", "tpnr.transaction")
        child = t.start("txn-9", "provider.upload")
        child.event(1.0, "receipt sent", msg_id=4)
        t.finish(child)
        t.finish(root)
        text = span_tree_text(t, "txn-9")
        assert text.splitlines()[0] == "trace txn-9"
        assert "- tpnr.transaction" in text
        assert "  - provider.upload" in text
        assert "receipt sent msg#4" in text

    def test_span_tree_text_empty_trace(self):
        assert "no spans" in span_tree_text(Tracer(), "missing")


class TestTraceJsonl:
    """The wire-trace exporter: one sorted-key JSON object per event."""

    def observed_upload(self, seed: bytes):
        from repro.core.protocol import make_deployment, run_upload

        dep = make_deployment(seed=seed, observe=True, durable=True)
        run_upload(dep, b"trace export payload")
        return dep

    def test_one_valid_object_per_event_with_sorted_keys(self):
        from repro.obs.exporters import trace_jsonl

        dep = self.observed_upload(b"trace-jsonl")
        lines = trace_jsonl(dep.network.trace).splitlines()
        assert len(lines) == len(dep.network.trace.events)
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == sorted(parsed)
            assert {"time", "action", "src", "dst", "kind",
                    "size_bytes", "msg_id"} <= set(parsed)

    def test_note_omitted_when_empty_and_kept_when_set(self):
        from repro.net.faults import FaultAction, FaultInjector, FaultPlan, FaultRule
        from repro.core.protocol import make_deployment, run_upload
        from repro.obs.exporters import trace_jsonl

        dep = make_deployment(seed=b"trace-note", observe=True)
        plan = FaultPlan(
            name="note-plan",
            rules=(FaultRule(FaultAction.DROP, "tpnr.upload.receipt"),),
        )
        injector = FaultInjector(plan)
        dep.network.install_adversary(injector)
        injector.reset(epoch=dep.sim.now)
        run_upload(dep, b"noted payload")
        dep.network.remove_adversary()
        parsed = [json.loads(l) for l in trace_jsonl(dep.network.trace).splitlines()]
        noted = [p for p in parsed if "note" in p]
        assert noted, "fault decisions must carry their note"
        assert any("plan=note-plan" in p["note"] for p in noted)
        assert all(p["note"] for p in noted)  # empty notes are omitted

    def test_same_seed_exports_identical_bytes(self):
        from repro.obs.exporters import trace_jsonl

        first = trace_jsonl(self.observed_upload(b"trace-stable").network.trace)
        second = trace_jsonl(self.observed_upload(b"trace-stable").network.trace)
        assert first == second

    def test_empty_trace_exports_empty(self):
        from repro.net.trace import TraceRecorder
        from repro.obs.exporters import trace_jsonl

        assert trace_jsonl(TraceRecorder()) == ""


class TestUnfinishedSpans:
    """A span with no end must export as status="unfinished"."""

    def mid_crash_deployment(self):
        # Telemetry snapshotted mid-transaction: bob is inside an
        # amnesia-crash window, so the transaction/resolve spans are
        # still open when we export.
        from repro.core.protocol import make_deployment
        from repro.net.faults import CrashWindow, FaultInjector, FaultPlan

        dep = make_deployment(seed=b"unfinished", observe=True, durable=True)
        plan = FaultPlan(
            name="mid-crash",
            crashes=(CrashWindow("bob", 0.0, 50.0, amnesia=True),),
        )
        injector = FaultInjector(plan)
        dep.network.install_adversary(injector)
        injector.reset(epoch=dep.sim.now)
        txn = dep.client.upload(dep.provider.name, b"cut-off payload")
        dep.run(until=5.0)
        return dep, txn

    def test_spans_jsonl_marks_open_spans_unfinished(self):
        dep, _ = self.mid_crash_deployment()
        parsed = [json.loads(l) for l in spans_jsonl(dep.obs.tracer).splitlines()]
        unfinished = [p for p in parsed if p["status"] == "unfinished"]
        assert unfinished
        assert all(p["end"] is None for p in unfinished)
        assert "tpnr.transaction" in {p["name"] for p in unfinished}

    def test_span_tree_text_marks_open_spans_unfinished(self):
        dep, txn = self.mid_crash_deployment()
        text = span_tree_text(dep.obs.tracer, txn)
        assert "[unfinished]" in text

    def test_finished_spans_keep_their_status(self):
        dep, txn = self.mid_crash_deployment()
        dep.run()  # settle: recovery closes every span
        parsed = [json.loads(l) for l in spans_jsonl(dep.obs.tracer).splitlines()]
        assert all(p["status"] != "unfinished" for p in parsed)

    def test_unit_level_unfinished_span(self):
        t = Tracer()
        root = t.start("txn-u", "root")
        done = t.start("txn-u", "child")
        t.finish(done)
        parsed = {p["name"]: p for p in
                  (json.loads(l) for l in spans_jsonl(t).splitlines())}
        assert parsed["root"]["status"] == "unfinished"
        assert parsed["child"]["status"] == "ok"
        assert root.status == "open"  # the in-memory span is untouched
