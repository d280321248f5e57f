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
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
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
        assert h.mean == pytest.approx(111.2 / 5)

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
        assert len(NULL_METRICS) == 0

    def test_instruments_are_shared_noops(self):
        a = NULL_METRICS.counter("x", k="1")
        b = NULL_METRICS.counter("y")
        assert a is b
        a.inc(100)
        assert NULL_METRICS.snapshot() == []
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.histogram("h").observe(1.0)
        assert len(NULL_METRICS) == 0


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
        assert len(reg) == 100


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
        assert len(reg) == 1

    def test_null_registry_sketch_is_shared_noop(self):
        a = NULL_METRICS.sketch("x")
        b = NULL_METRICS.sketch("y", shard="2")
        assert a is b
        a.observe(123.0)
        assert a.count == 0
        assert len(NULL_METRICS) == 0
