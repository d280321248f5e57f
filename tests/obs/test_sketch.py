"""Quantile sketches: accuracy bound and exact merge.

A deterministic DDSketch-style sketch whose per-shard instances merge
*exactly* (bucket maps, counts, min/max identical; merged quantiles
equal the global ones).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import QuantileSketch


def spread_values(n: int = 500) -> list[float]:
    """A deterministic multi-decade sample: sub-ms to tens of seconds."""
    return [0.0003 * (1.13 ** (i % 97)) + (i % 7) * 0.011 for i in range(n)]


class TestSketchBasics:
    def test_empty_sketch(self):
        s = QuantileSketch("lat")
        assert s.count == 0
        assert s.quantile(0.5) == 0.0
        assert s.min is None and s.max is None

    def test_counts_sum_min_max(self):
        s = QuantileSketch("lat")
        for v in (2.0, 0.5, 8.0):
            s.observe(v)
        assert s.count == 3
        assert s.sum == pytest.approx(10.5)
        assert s.min == 0.5 and s.max == 8.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch("lat").observe(-0.1)

    def test_invalid_alpha_rejected(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                QuantileSketch("lat", alpha=alpha)

    def test_zeros_and_subtrackable_land_in_zero_bucket(self):
        s = QuantileSketch("lat")
        s.observe(0.0)
        s.observe(1e-12)
        assert s.zero_count == 2
        assert s.count == 2
        assert not s.buckets
        assert s.quantile(0.5) == 0.0  # min is the exact answer

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch("lat").quantile(1.5)


class TestAccuracyBound:
    def test_quantiles_within_alpha_of_a_neighbour_rank(self):
        values = spread_values()
        s = QuantileSketch("lat")
        for v in values:
            s.observe(v)
        sv = sorted(values)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
            est = s.quantile(q)
            # The sketch targets the floor-rank sample; accept any
            # neighbour rank so this asserts the alpha bound, not the
            # tie-breaking convention at rank boundaries.
            i = int(q * (len(sv) - 1))
            assert any(
                abs(est - sv[j]) <= s.alpha * sv[j] + 1e-9
                for j in (max(i - 1, 0), i, min(i + 1, len(sv) - 1))
            ), f"q={q}: {est} vs {sv[i]}"

    def test_extremes_are_exact(self):
        s = QuantileSketch("lat")
        for v in spread_values(100):
            s.observe(v)
        assert s.quantile(0.0) == s.min
        assert s.quantile(1.0) == s.max

    def test_monotone_in_q(self):
        s = QuantileSketch("lat")
        for v in spread_values(200):
            s.observe(v)
        qs = [s.quantile(q / 20) for q in range(21)]
        assert qs == sorted(qs)

    def test_count_le_respects_error_bound(self):
        s = QuantileSketch("lat")
        values = spread_values(300)
        for v in values:
            s.observe(v)
        threshold = sorted(values)[150]
        got = s.count_le(threshold)
        lo = sum(1 for v in values if v <= threshold * (1 - s.alpha))
        hi = sum(1 for v in values if v <= threshold * (1 + s.alpha))
        assert lo <= got <= hi
        assert s.count_le(-1.0) == 0


class TestExactMerge:
    def shard(self, values, shards=4):
        out = [QuantileSketch("lat") for _ in range(shards)]
        for i, v in enumerate(values):
            out[i % shards].observe(v)
        return out

    def test_merge_equals_global_build(self):
        values = spread_values()
        global_sketch = QuantileSketch("lat")
        for v in values:
            global_sketch.observe(v)
        merged = QuantileSketch.merged("lat", self.shard(values))
        assert merged.buckets == global_sketch.buckets
        assert merged.count == global_sketch.count
        assert merged.zero_count == global_sketch.zero_count
        assert merged.min == global_sketch.min
        assert merged.max == global_sketch.max
        for q in (0.5, 0.9, 0.95, 0.99):
            assert merged.quantile(q) == global_sketch.quantile(q)

    def test_merge_is_in_place_and_returns_self(self):
        a, b = QuantileSketch("x"), QuantileSketch("x")
        a.observe(1.0)
        b.observe(2.0)
        assert a.merge(b) is a
        assert a.count == 2
        assert a.max == 2.0

    def test_mismatched_alpha_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch("x", alpha=0.01).merge(QuantileSketch("x", alpha=0.02))

    def test_merging_empty_shards(self):
        merged = QuantileSketch.merged("x", [QuantileSketch("x"), QuantileSketch("x")])
        assert merged.count == 0
        assert QuantileSketch.merged("x", []).count == 0


class TestSnapshotRoundTrip:
    def test_round_trip_preserves_everything(self):
        s = QuantileSketch("lat", labels=(("shard", "3"),))
        for v in spread_values(100):
            s.observe(v)
        s.observe(0.0)
        clone = QuantileSketch.from_snapshot(s.snapshot())
        assert clone.buckets == s.buckets
        assert clone.zero_count == s.zero_count
        assert clone.count == s.count
        assert clone.min == s.min and clone.max == s.max
        assert clone.labels == s.labels
        for q in (0.5, 0.99):
            assert clone.quantile(q) == s.quantile(q)

    def test_snapshot_is_json_safe_and_bucket_order_sorted(self):
        s = QuantileSketch("lat")
        for v in (5.0, 0.01, 1.0):
            s.observe(v)
        row = s.snapshot()
        json.dumps(row)  # must not raise
        indices = [i for i, _ in row["buckets"]]
        assert indices == sorted(indices)


class TestMergedQuantilePropertyBound:
    """ISSUE 9 satellite: property-test that merged-shard quantiles
    stay within the alpha bound of the global build for adversarial
    counts — count=1, all-equal values, zero-bucket-only, and mixed
    populations straddling the rank-walk's bucket boundaries."""

    ALPHA_QS = (0.0, 0.25, 0.5, 0.75, 0.99, 1.0)

    def assert_merge_matches_global(self, values, shards=3):
        global_sketch = QuantileSketch("lat")
        shard_sketches = [QuantileSketch("lat") for _ in range(shards)]
        for i, v in enumerate(values):
            global_sketch.observe(v)
            shard_sketches[i % shards].observe(v)
        merged = QuantileSketch.merged("lat", shard_sketches)
        for q in self.ALPHA_QS:
            assert merged.quantile(q) == global_sketch.quantile(q), (
                q, values)
        return global_sketch

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_count_one(self, v):
        s = self.assert_merge_matches_global([v], shards=4)
        # With one sample, every quantile is that sample: exactly (via
        # min) for a zero-bucket value, within alpha otherwise.
        for q in self.ALPHA_QS:
            est = s.quantile(q)
            if s.zero_count:
                assert est == s.min == v
            else:
                assert abs(est - v) <= s.alpha * v + 1e-12

    @given(st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
           st.integers(min_value=2, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_all_equal(self, v, n):
        s = self.assert_merge_matches_global([v] * n)
        for q in self.ALPHA_QS:
            assert abs(s.quantile(q) - v) <= s.alpha * v + 1e-12

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_zero_bucket_only(self, n):
        s = self.assert_merge_matches_global([0.0] * n, shards=4)
        for q in self.ALPHA_QS:
            assert s.quantile(q) == 0.0

    @given(st.lists(st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False)),
        min_size=1, max_size=60),
        st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_mixed_population_within_alpha(self, values, shards):
        global_sketch = self.assert_merge_matches_global(values, shards)
        sv = sorted(values)
        for q in self.ALPHA_QS:
            est = global_sketch.quantile(q)
            i = int(q * (len(sv) - 1))
            neighbours = {sv[j] for j in
                          (max(i - 1, 0), i, min(i + 1, len(sv) - 1))}
            assert any(
                abs(est - x) <= global_sketch.alpha * x + 1e-9
                for x in neighbours
            ), (q, est, sorted(neighbours))

    def test_boundary_zero_then_one_tracked(self):
        # rank exactly at the zero-bucket boundary: 2 zeros + 2
        # tracked, q=0.5 -> rank 1.5, still inside the zero bucket.
        s = QuantileSketch("lat")
        for v in (0.0, 0.0, 1.0, 2.0):
            s.observe(v)
        assert s.quantile(0.5) == 0.0
        assert s.quantile(0.75) > 0.0

    def test_boundary_rank_equals_bucket_edge(self):
        # rank integer-exact at a bucket edge: 1 zero + 1 tracked,
        # q=0.5 -> rank 0.5 >= zero_count would be the off-by-one;
        # rank < zero_count (0.5 < 1) keeps it in the zero bucket.
        s = QuantileSketch("lat")
        s.observe(0.0)
        s.observe(5.0)
        assert s.quantile(0.0) == 0.0
        assert s.quantile(0.5) == 0.0
        assert s.quantile(1.0) == 5.0


def brute_count_le(sketch: QuantileSketch, threshold: float) -> int:
    """count_le by its definition: every bucket's representative
    compared against the bound."""
    if threshold < 0.0:
        return 0
    limit = threshold * (1.0 + sketch.alpha)
    return sketch.zero_count + sum(
        n for index, n in sketch.buckets.items()
        if sketch._representative(index) <= limit)


class TestCountLeCutoff:
    """count_le compares bucket indices against one cutoff instead of
    computing every bucket's representative; the answer must not move."""

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.6]),
        values=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40),
        thresholds=st.lists(st.floats(min_value=-1.0, max_value=1e7), max_size=8),
    )
    def test_equals_brute_force(self, alpha, values, thresholds):
        s = QuantileSketch("lat", alpha=alpha)
        for v in values:
            s.observe(v)
        # Every bucket edge too: a threshold whose bound lands exactly
        # on a representative is where an off-by-one would show.
        edges = [s._representative(i) / (1.0 + alpha) for i in s.buckets]
        for t in [*thresholds, *edges, 0.0]:
            assert s.count_le(t) == brute_count_le(s, t)

    def test_extreme_thresholds(self):
        s = QuantileSketch("lat")
        for v in (0.0, 1e-6, 0.5, 3.0):
            s.observe(v)
        assert s.count_le(-1.0) == 0
        assert s.count_le(0.0) == 1
        assert s.count_le(float("nan")) == 1 == brute_count_le(s, float("nan"))
        assert s.count_le(float("inf")) == 4
        assert s.count_le(1e308) == 4 == brute_count_le(s, 1e308)
        assert s.count_le(5e-324) == 1 == brute_count_le(s, 5e-324)
