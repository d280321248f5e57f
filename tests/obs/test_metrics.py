"""The metrics registry: counters, gauges, histograms, snapshots.

Acceptance bar (ISSUE 3 tentpole): deterministic, dependency-free
instruments stamped with the simulation clock, and a null registry
whose instruments are shared no-ops.
"""

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.exporters import prometheus_text
from repro.obs.sketch import QuantileSketch


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("msgs", kind="a").inc()
        reg.counter("msgs", kind="b").inc(2)
        assert reg.counter("msgs", kind="a").value == 1
        assert reg.counter("msgs", kind="b").value == 2

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("msgs", a="1", b="2") is reg.counter("msgs", b="2", a="1")


class TestGauge:
    def test_set_replaces_the_value(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.set(12)
        assert g.value == 12


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 0.7, 3.0, 7.0, 100.0):
            h.observe(v)
        assert h.count == 5
        assert h.bucket_counts == [2, 1, 1, 1]  # <=1, <=5, <=10, +Inf
        assert h.bucket_counts[-1] == 1  # 100.0 lands in the +Inf slot
        assert h.sum == pytest.approx(111.2)

    def test_cumulative_counts_monotone(self):
        # The cumulative view exists only in the Prometheus export.
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        cum = [int(line.rsplit(" ", 1)[1])
               for line in prometheus_text(reg).splitlines()
               if line.startswith("h_bucket")]
        assert cum == [1, 2, 3, 4]  # last entry is +Inf = count

    def test_boundary_value_counts_as_le(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(5.0, 1.0))

    def test_registry_histogram_defaults(self):
        h = MetricsRegistry().histogram("lat")
        assert tuple(h.buckets) == DEFAULT_LATENCY_BUCKETS


class TestRegistrySnapshots:
    def test_snapshot_is_sorted_and_clock_stamped(self):
        now = {"t": 1.5}
        reg = MetricsRegistry(clock=lambda: now["t"])
        reg.counter("b").inc()
        reg.counter("a", x="1").inc()
        now["t"] = 7.25
        snap = reg.snapshot()
        assert [m["name"] for m in snap] == ["a", "b"]
        assert all(m["at"] == 7.25 for m in snap)

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestNullRegistry:
    def test_disabled_and_empty(self):
        assert NULL_METRICS.enabled is False
        assert NullMetricsRegistry().snapshot() == []
        assert MetricsRegistry.snapshot(NULL_METRICS) == []  # nothing allocated

    def test_instruments_are_shared_noops(self):
        a = NULL_METRICS.counter("x", k="1")
        b = NULL_METRICS.counter("y")
        assert a is b
        a.inc(100)
        assert NULL_METRICS.snapshot() == []
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.histogram("h").observe(1.0)
        assert MetricsRegistry.snapshot(NULL_METRICS) == []  # nothing allocated


class TestHistogramMinMax:
    def test_none_until_first_observation(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.min is None and h.max is None

    def test_tracks_extremes(self):
        h = Histogram("h", buckets=(1.0, 5.0))
        for v in (3.0, 0.25, 9.0, 1.0):
            h.observe(v)
        assert h.min == 0.25
        assert h.max == 9.0

    def test_snapshot_carries_min_max_additively(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        (row,) = reg.snapshot()
        # The pre-existing schema is intact...
        assert {"kind", "name", "labels", "buckets", "bucket_counts",
                "count", "sum", "at"} <= set(row)
        # ...and the new keys ride alongside.
        assert row["min"] == 0.5 and row["max"] == 0.5


class TestCardinalityGuard:
    """The registry sets no label budget: bounding label cardinality is
    the call site's job (every label set in the package is finite)."""

    def test_no_budget_means_unlimited(self):
        reg = MetricsRegistry()
        for i in range(100):
            reg.counter("free", tenant=str(i)).inc()
        assert len(reg.snapshot()) == 100


class TestSketchInstrument:
    def test_get_or_create_and_kind_claim(self):
        reg = MetricsRegistry()
        s = reg.sketch("lat", shard="1")
        assert s is reg.sketch("lat", shard="1")
        assert isinstance(s, QuantileSketch)
        with pytest.raises(TypeError):
            reg.counter("lat")

    def test_snapshot_rows_are_tagged_and_stamped(self):
        reg = MetricsRegistry(clock=lambda: 4.5)
        reg.sketch("lat").observe(1.0)
        (row,) = reg.snapshot()
        assert row["kind"] == "sketch"
        assert row["at"] == 4.5
        assert row["count"] == 1
        assert len(reg.snapshot()) == 1

    def test_null_registry_sketch_is_shared_noop(self):
        a = NULL_METRICS.sketch("x")
        b = NULL_METRICS.sketch("y", shard="2")
        assert a is b
        a.observe(123.0)
        assert a.count == 0
        assert MetricsRegistry.snapshot(NULL_METRICS) == []  # nothing allocated


class TestCallSiteMemo:
    """A lookup probes a memo keyed by the labels as passed; the memo
    must never change which series a call reaches or what it exports."""

    def test_reordered_labels_reach_one_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("msgs", party="bob", kind="upload")
        b = reg.counter("msgs", kind="upload", party="bob")
        assert a is b
        assert reg.counter("msgs", party="bob", kind="upload") is a
        assert len(reg.snapshot()) == 1
        for kind in ("gauge", "histogram", "sketch"):
            first = getattr(reg, kind)(kind, x="1", y="2")
            assert getattr(reg, kind)(kind, y="2", x="1") is first

    def test_kind_conflict_still_raises_once_memoized(self):
        reg = MetricsRegistry()
        c = reg.counter("x", k="a")
        assert reg.counter("x", k="a") is c  # now served by the memo
        with pytest.raises(TypeError):
            reg.gauge("x", k="a")
        with pytest.raises(TypeError):
            reg.gauge("x", k="a")  # a failed claim is not memoized
        assert reg.counter("x", k="a") is c

    def test_non_str_values_stringify_as_before(self):
        reg = MetricsRegistry()
        one = reg.counter("n", v=1)
        # 1 == 1.0 == True, but their label strings differ.
        assert reg.counter("n", v=1.0) is not one
        assert reg.counter("n", v=True) is not one
        assert reg.counter("n", v="1") is one
        assert reg.counter("n", v=1) is one
        assert sorted(r["labels"]["v"] for r in reg.snapshot()) == ["1", "1.0", "True"]

    def test_unhashable_label_value_still_works(self):
        reg = MetricsRegistry()
        c = reg.counter("u", tags=["a", "b"])
        c.inc()
        assert reg.counter("u", tags=["a", "b"]) is c
        assert reg.counter("u", tags="['a', 'b']") is c
        (row,) = reg.snapshot()
        assert row["labels"] == {"tags": "['a', 'b']"} and row["value"] == 1

    def test_snapshot_independent_of_lookup_order(self):
        calls = [
            ("counter", "net.sent", {"kind": "a"}),
            ("counter", "net.sent", {"kind": "b"}),
            ("counter", "txn.finished", {"role": "client", "status": "ok"}),
            ("gauge", "inflight", {}),
            ("histogram", "lat", {"shard": "0"}),
            ("sketch", "engine.session_latency", {}),
        ]

        def drive(order, reverse_labels):
            reg = MetricsRegistry(clock=lambda: 2.0)
            for kind, name, labels in order:
                items = list(labels.items())
                if reverse_labels:
                    items.reverse()
                instrument = getattr(reg, kind)(name, **dict(items))
                if kind == "gauge":
                    instrument.set(3)
                elif kind == "counter":
                    instrument.inc()
                else:
                    instrument.observe(0.25)
            return reg.snapshot()

        expected = drive(calls * 2, False)
        assert drive(list(reversed(calls)) * 2, True) == expected
        assert drive(calls[::2] + calls[1::2] + calls, True) == expected
