"""Pool call-count profiles, their exporters, critical-path
extraction and shard utilization (OB4)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profiler import (
    critical_path,
    flamegraph_text,
    profile_jsonl,
    shard_utilization,
    top_regions,
)
from repro.obs.span import Tracer


class TestExporters:
    PROFILE = {"drive;rsa": 2, "drive": 1}

    def test_flamegraph_weights_and_filter(self):
        # One line per path, weighted by calls and sorted by path,
        # whatever the table's insertion order.
        assert flamegraph_text(self.PROFILE) == "drive 1\ndrive;rsa 2\n"
        assert flamegraph_text(dict(reversed(self.PROFILE.items()))) == (
            flamegraph_text(self.PROFILE))

    def test_profile_jsonl_shape(self):
        lines = [json.loads(line)
                 for line in profile_jsonl(self.PROFILE).splitlines()]
        assert lines[0] == {"kind": "profile"}
        assert lines[1:] == [{"calls": 1, "path": "drive"},
                             {"calls": 2, "path": "drive;rsa"}]

    def test_profile_jsonl_carries_stamp_under_scenario(self):
        from repro.scenarios import SCENARIOS, stamped

        ob4 = SCENARIOS.get("OB4")
        with stamped(ob4.stamp()):
            header = json.loads(profile_jsonl(self.PROFILE).splitlines()[0])
        assert header["kind"] == "profile"
        assert header["run_key"] == ob4.run_key()

    def test_top_regions_ranked_by_calls_then_path(self):
        profile = {"b": 3, "a": 3, "c": 7, "d": 1}
        assert top_regions(profile, k=3) == [("c", 7), ("a", 3), ("b", 3)]

    def test_empty_profiler_exports(self):
        assert flamegraph_text({}) == ""
        assert top_regions({}) == []
        assert len(profile_jsonl({}).splitlines()) == 1  # header only


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
            shards: run_pool(seed, 4, directory=directory, shards=shards,
                             profile=True)
            for shards in (1, 2, 3)
        }
        assert {r.signature() for r in profiled.values()} == {plain.signature()}
        artifacts = {
            (flamegraph_text(r.profile), profile_jsonl(r.profile))
            for r in profiled.values()
        }
        assert len(artifacts) == 1
        (flame, _), = artifacts
        # Every row is a drive-phase crypto count.
        assert flame == (
            "engine/drive;crypto/aead.open 20\n"
            "engine/drive;crypto/aead.seal 20\n"
            "engine/drive;crypto/rsa.sign 40\n"
            "engine/drive;crypto/rsa.verify 40\n"
        )

    def test_profile_rejects_batched_evidence(self):
        from repro.engine import EngineConfig

        # A batched run's seals depend on the shard layout, so its
        # crypto counts would not sum across shards.
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(n_tenants=4, batch_size=4, profile=True)

    def test_unprofiled_run_has_no_profile(self, directory):
        from repro.engine import run_pool

        assert run_pool(b"test/profiler", 2,
                        directory=directory).profile is None
