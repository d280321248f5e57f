"""The deterministic region profiler, critical-path extraction, and
profile exporters (PR 10 / OB4)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profiler import (
    NULL_PROFILER,
    NullRegionProfiler,
    RegionProfiler,
    critical_path,
    flamegraph_text,
    profile_jsonl,
    shard_utilization,
    top_regions,
)
from repro.obs.span import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestRegionAccounting:
    def test_nested_sim_self_times(self):
        clock = FakeClock()
        p = RegionProfiler(clock)
        with p.region("a"):
            clock.advance(1.0)
            with p.region("b"):
                clock.advance(2.0)
            clock.advance(3.0)
        a, b = p.get("a"), p.get("a;b")
        assert a.calls == 1 and b.calls == 1
        assert a.sim_total == pytest.approx(6.0)
        assert b.sim_total == pytest.approx(2.0)
        assert a.self_sim_total == pytest.approx(4.0)  # 6 minus b's 2
        assert b.self_sim_total == pytest.approx(2.0)
        assert p.open_regions == 0

    def test_leaf_counts_as_child_time(self):
        clock = FakeClock()
        p = RegionProfiler(clock)
        with p.region("drive"):
            clock.advance(4.0)
            p.record_leaf("crypto", sim_seconds=1.0)
        drive = p.get("drive")
        leaf = p.get("drive;crypto")
        assert leaf.calls == 1 and leaf.sim_total == pytest.approx(1.0)
        # The leaf's sim second is the parent's child time, not self.
        assert drive.self_sim_total == pytest.approx(3.0)

    def test_reentry_accumulates(self):
        clock = FakeClock()
        p = RegionProfiler(clock)
        for _ in range(3):
            with p.region("a"):
                clock.advance(1.0)
        assert p.get("a").calls == 3
        assert p.get("a").sim_total == pytest.approx(3.0)

    def test_stats_sorted_by_path(self):
        p = RegionProfiler()
        p.record_leaf("z")
        p.record_leaf("a")
        assert [s.path for s in p.stats()] == ["a", "z"]


class TestInvarianceScope:
    def test_root_defaults_invariant(self):
        p = RegionProfiler()
        with p.region("a"):
            p.record_leaf("leaf")
        assert p.get("a").invariant is True
        assert p.get("a;leaf").invariant is True

    def test_scope_false_poisons_descendants(self):
        p = RegionProfiler()
        with p.region("build", invariant=False):
            p.record_leaf("keygen-crypto")
            with p.region("inner"):
                p.record_leaf("deep")
        assert p.get("build").invariant is False
        assert p.get("build;keygen-crypto").invariant is False
        assert p.get("build;inner").invariant is False
        assert p.get("build;inner;deep").invariant is False

    def test_scope_true_rescues_leaves_in_noninvariant_frame(self):
        # engine/schedule is per-shard (non-invariant) but the per-tenant
        # work inside it is session-driven: scope=True restores the default.
        p = RegionProfiler()
        with p.region("schedule", invariant=False, scope=True):
            with p.region("workload", invariant=True):
                p.record_leaf("stream")
        assert p.get("schedule").invariant is False
        assert p.get("schedule;workload").invariant is True
        assert p.get("schedule;workload;stream").invariant is True

    def test_leaf_invariant_override(self):
        p = RegionProfiler()
        p.record_leaf("merge", invariant=False)
        assert p.get("merge").invariant is False

    def test_invariance_is_sticky_and_ands(self):
        p = RegionProfiler()
        p.record_leaf("op")
        p.record_leaf("op", invariant=False)
        assert p.get("op").invariant is False


class TestMerge:
    def test_merge_is_exact(self):
        values = [0.25 * i for i in range(24)]
        whole = RegionProfiler()
        parts = [RegionProfiler(), RegionProfiler()]
        for i, v in enumerate(values):
            whole.record_leaf("op", sim_seconds=v)
            parts[i % 2].record_leaf("op", sim_seconds=v)
        merged = RegionProfiler.merged(parts)
        assert ([s.row() for s in merged.stats()]
                == [s.row() for s in whole.stats()])
        assert profile_jsonl(merged) == profile_jsonl(whole)
        assert flamegraph_text(merged) == flamegraph_text(whole)

    def test_merge_ands_invariance(self):
        a, b = RegionProfiler(), RegionProfiler()
        a.record_leaf("op")
        b.record_leaf("op", invariant=False)
        assert RegionProfiler.merged([a, b]).get("op").invariant is False

    def test_merge_disjoint_paths(self):
        a, b = RegionProfiler(), RegionProfiler()
        a.record_leaf("x")
        b.record_leaf("y")
        merged = RegionProfiler.merged([a, b])
        assert [s.path for s in merged.stats()] == ["x", "y"]

    @given(st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=40),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_merge_exactness_property(self, values, n_parts):
        """Any partition of the observations merges back bit-for-bit."""
        whole = RegionProfiler()
        parts = [RegionProfiler() for _ in range(n_parts)]
        for i, v in enumerate(values):
            whole.record_leaf("op", sim_seconds=v)
            parts[i % n_parts].record_leaf("op", sim_seconds=v)
        merged = RegionProfiler.merged(parts)
        assert profile_jsonl(merged) == profile_jsonl(whole)


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        assert isinstance(NULL_PROFILER, NullRegionProfiler)
        with NULL_PROFILER.region("a"):
            NULL_PROFILER.record_leaf("leaf", sim_seconds=1.0)
        assert NULL_PROFILER.stats() == []
        assert NULL_PROFILER.open_regions == 0

    def test_region_object_is_shared(self):
        assert NULL_PROFILER.region("a") is NULL_PROFILER.region("b")

    def test_merge_is_identity(self):
        live = RegionProfiler()
        live.record_leaf("op")
        assert NULL_PROFILER.merge(live) is NULL_PROFILER
        assert NULL_PROFILER.stats() == []


class TestExporters:
    def profiler(self) -> RegionProfiler:
        clock = FakeClock()
        p = RegionProfiler(clock)
        with p.region("drive"):
            clock.advance(2.0)
            p.record_leaf("rsa")
            p.record_leaf("rsa")
        p.record_leaf("merge", invariant=False)
        return p

    def test_flamegraph_weights_and_filter(self):
        # Weighted by calls; the non-invariant merge leaf is filtered out.
        assert flamegraph_text(self.profiler()) == "drive 1\ndrive;rsa 2\n"

    def test_profile_jsonl_shape(self):
        p = self.profiler()
        lines = [json.loads(line) for line in profile_jsonl(p).splitlines()]
        assert lines[0]["kind"] == "profile"
        rows = lines[1:]
        assert [r["path"] for r in rows] == ["drive", "drive;rsa"]
        # Calls and sim-clock fields only: the profiler reads no other clock.
        assert set(rows[0]) == {"path", "calls", "sim_total", "self_sim_total",
                                "sim_p50", "sim_p99"}
        assert rows[0]["sim_total"] == 2.0

    def test_profile_jsonl_carries_stamp_under_scenario(self):
        from repro.scenarios import SCENARIOS, stamped

        ob4 = SCENARIOS.get("OB4")
        with stamped(ob4.stamp()):
            header = json.loads(profile_jsonl(self.profiler()).splitlines()[0])
        assert header["run_key"] == ob4.run_key()

    def test_top_regions_ranked_by_calls_then_path(self):
        p = self.profiler()
        rows = top_regions(p, k=2)
        assert rows[0][0] == "drive;rsa" and rows[0][1] == 2
        assert rows[1][0] == "drive"

    def test_empty_profiler_exports(self):
        p = RegionProfiler()
        assert flamegraph_text(p) == ""
        assert top_regions(p) == []
        assert len(profile_jsonl(p).splitlines()) == 1  # header only


class TestCriticalPath:
    def tree(self, shape):
        """Build a trace from (name, parent_index, start, end) tuples."""
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        spans = []
        for name, parent, start, end in shape:
            now[0] = start
            span = tracer.start("T", name,
                                parent=spans[parent] if parent is not None else None)
            spans.append(span)
        for (name, parent, start, end), span in zip(shape, spans):
            now[0] = end
            tracer.finish(span)
        return tracer

    def test_nested_chain_reconciles(self):
        tracer = self.tree([
            ("root", None, 0.0, 10.0),
            ("mid", 0, 1.0, 9.0),
            ("leaf", 1, 2.0, 5.0),
        ])
        path = critical_path(tracer, "T")
        assert [s.name for s in path.stages] == ["root", "mid", "leaf"]
        assert path.total == pytest.approx(10.0)
        assert path.length == pytest.approx(10.0)  # 2 + 5 + 3 telescopes
        assert path.reconciles()
        assert path.dominant().name == "mid"

    def test_handoff_tree_reconciles(self):
        # The session shape: the root closes exactly as the download
        # child opens; overlap-based self times still cover the elapsed.
        tracer = self.tree([
            ("root", None, 0.0, 4.0),
            ("download", 0, 4.0, 9.0),
        ])
        path = critical_path(tracer, "T")
        assert path.total == pytest.approx(9.0)
        assert path.length == pytest.approx(9.0)
        assert path.reconciles()

    def test_gap_breaks_reconciliation(self):
        tracer = self.tree([
            ("root", None, 0.0, 2.0),
            ("late", 0, 5.0, 6.0),  # 3s of dead time no stage owns
        ])
        path = critical_path(tracer, "T")
        assert path.total == pytest.approx(6.0)
        assert path.length == pytest.approx(3.0)
        assert not path.reconciles()

    def test_descends_into_last_ending_child(self):
        tracer = self.tree([
            ("root", None, 0.0, 10.0),
            ("short", 0, 1.0, 3.0),
            ("long", 0, 1.0, 9.0),
        ])
        path = critical_path(tracer, "T")
        assert [s.name for s in path.stages] == ["root", "long"]

    def test_missing_trace_is_none(self):
        assert critical_path(Tracer(), "nope") is None

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.floats(0, 10, allow_nan=False),
                  st.floats(0, 10, allow_nan=False)),
        min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_path_properties(self, ops):
        """On arbitrary trees: no negative self time, and the path never
        exceeds the summed span durations of the whole tree."""
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        spans = []
        for i, (pchoice, offset, dur) in enumerate(ops):
            parent = spans[pchoice % len(spans)] if spans else None
            start = (parent.start if parent is not None else 0.0) + offset
            now[0] = start
            span = tracer.start("T", f"s{i}", parent=parent)
            now[0] = start + dur
            tracer.finish(span)
            spans.append(span)
        path = critical_path(tracer, "T")
        assert path is not None
        assert all(stage.self_seconds >= 0.0 for stage in path.stages)
        tree_total = sum(s.duration for s in tracer.trace("T"))
        assert path.length <= tree_total + 1e-6
        assert path.total >= 0.0


class TestShardUtilization:
    def test_empty(self):
        assert shard_utilization([]) == {"shards": 0, "session_skew": 1.0}

    def test_balanced(self):
        util = shard_utilization([{"sessions": 4}, {"sessions": 4}])
        assert util == {"shards": 2, "session_skew": 1.0}

    def test_skewed(self):
        util = shard_utilization([{"sessions": 6}, {"sessions": 2}])
        assert util == {"shards": 2, "session_skew": 1.5}


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def directory(self):
        from repro.engine import TenantDirectory

        directory = TenantDirectory(b"test/profiler")
        directory.warm(["bob", "ttp",
                        *[f"tenant-{i:04d}" for i in range(4)]])
        return directory

    def test_artifacts_shard_invariant_and_signature_unperturbed(self, directory):
        from repro.engine import run_pool

        seed = b"test/profiler"
        plain = run_pool(seed, 4, directory=directory)
        profiled = {
            shards: run_pool(seed, 4, directory=directory,
                             shards=shards, profile=True)
            for shards in (1, 2)
        }
        assert {r.signature() for r in profiled.values()} == {plain.signature()}
        artifacts = {
            shards: (flamegraph_text(r.profile), profile_jsonl(r.profile))
            for shards, r in profiled.items()
        }
        assert artifacts[1] == artifacts[2]
        assert "engine/drive;crypto/rsa.sign" in artifacts[1][0]

    def test_profile_requires_observe(self):
        from repro.engine.pool import EngineConfig

        with pytest.raises(ValueError):
            EngineConfig(n_tenants=1, observe=False, profile=True)

    def test_unprofiled_run_has_no_profile(self, directory):
        from repro.engine import run_pool

        assert run_pool(b"test/profiler", 2,
                        directory=directory).profile is None
