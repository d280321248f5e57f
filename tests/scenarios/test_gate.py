"""The fail-closed promotion gate.

Acceptance criteria exercised here: the gate demonstrably rejects
(1) a mismatched run_key, (2) a wrong derived seed, and (3) a failed
invariance check — plus the legacy classification of points recorded
before the gate existed, and a regression audit of the committed
``benchmarks/results/BENCH_PERF.json``.
"""

import json
import pathlib

import pytest

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.scenarios import (
    DEFAULT_REGISTRY,
    GATE_FLOOR_VERSION,
    PromotionError,
    ScenarioRegistry,
    ScenarioSpec,
    audit_file,
    entry_class,
    promote,
    validate_entry,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _noop_runner(seed: bytes) -> ExperimentResult:
    return ExperimentResult("GT1", "gate probe", ["k"], [["v"]], {}, "",
                            run_meta(seed))


@pytest.fixture
def registry():
    reg = ScenarioRegistry()
    reg.register(
        ScenarioSpec("GT1", "gate probe", "_noop_runner", "exp/gt1",
                     stages=("perf",),
                     invariance={"perf": ("sig_identical",)}),
        runner=_noop_runner)
    return reg


@pytest.fixture
def scenario(registry):
    return registry.get("GT1")


def good_entry(sc, **overrides):
    entry = sc.perf_entry("perf", invariance={"sig_identical": True},
                          recorded_by="test", ms=1.0)
    entry.update(overrides)
    return entry


# -- acceptance ---------------------------------------------------------------


def test_valid_entry_is_accepted(registry, scenario):
    report = validate_entry(good_entry(scenario), registry)
    assert report["status"] == "accepted"
    assert report["run_key"] == scenario.run_key()
    assert "run_key" in report["checked"]
    assert "seed-derivation" in report["checked"]
    assert "invariance:sig_identical" in report["checked"]


def test_promote_writes_and_dedupes_by_version(registry, scenario, tmp_path):
    path = tmp_path / "BENCH_PERF.json"
    promote(path, good_entry(scenario, ms=1.0), registry)
    promote(path, good_entry(scenario, ms=2.0), registry)  # same version: replaced
    entries = json.loads(path.read_text())
    assert len(entries) == 1 and entries[0]["ms"] == 2.0
    # A point at a different recorded version coexists: that is the
    # trajectory.  Its run_key must be the key at *that* version.
    old = good_entry(scenario, repo_version="1.1.0-pre",
                     run_key=scenario.run_key(version="1.1.0-pre"))
    promote(path, old, registry)
    assert len(json.loads(path.read_text())) == 2


# -- the three rejection criteria ---------------------------------------------


def test_gate_rejects_mismatched_run_key(registry, scenario, tmp_path):
    bad = good_entry(scenario, run_key="0" * 64)
    with pytest.raises(PromotionError, match="run_key mismatch"):
        validate_entry(bad, registry)
    path = tmp_path / "BENCH_PERF.json"
    with pytest.raises(PromotionError):
        promote(path, bad, registry)
    assert not path.exists()  # fail-closed: nothing was written

    # A spec change (different knob/root) shows up as a key mismatch too.
    drifted = registry_with_drift()
    with pytest.raises(PromotionError, match="run_key mismatch"):
        validate_entry(good_entry(scenario), drifted)


def registry_with_drift():
    reg = ScenarioRegistry()
    reg.register(
        ScenarioSpec("GT1", "gate probe", "_noop_runner", "exp/gt1-DRIFTED",
                     stages=("perf",),
                     invariance={"perf": ("sig_identical",)}),
        runner=_noop_runner)
    return reg


def test_gate_rejects_wrong_derived_seed(registry, scenario):
    with pytest.raises(PromotionError, match="PT-002"):
        validate_entry(good_entry(scenario, seed="exp/gt1"), registry)  # root, not stage
    with pytest.raises(PromotionError, match="PT-002"):
        validate_entry(good_entry(scenario, seed="bench/gt1"), registry)  # ad-hoc
    wrong_rep = scenario.seed("perf", 1).decode()
    with pytest.raises(PromotionError, match="PT-002"):
        validate_entry(good_entry(scenario, seed=wrong_rep), registry)


def test_gate_rejects_failed_or_missing_invariance(registry, scenario):
    with pytest.raises(PromotionError, match="failed"):
        validate_entry(good_entry(scenario, invariance={"sig_identical": False}),
                       registry)
    with pytest.raises(PromotionError, match="never recorded"):
        validate_entry(good_entry(scenario, invariance={}), registry)


# -- other fail-closed edges --------------------------------------------------


def test_gate_rejects_undeclared_stage_and_unknown_scenario(registry, scenario):
    with pytest.raises(PromotionError, match="not declared"):
        validate_entry(good_entry(scenario, stage="warmup"), registry)
    with pytest.raises(PromotionError, match="not registered"):
        validate_entry(good_entry(scenario, scenario="GHOST"), registry)
    with pytest.raises(PromotionError, match="experiment_id"):
        validate_entry({}, registry)


def test_gated_entry_missing_identity_is_rejected_not_legacy(registry):
    # Same omission as a legacy point, but at a post-gate version: the
    # classification flips to gated and validation fails closed.
    entry = {"experiment_id": "GT1", "repo_version": "1.1.0", "seed": "x"}
    assert entry_class(entry) == "gated"
    with pytest.raises(PromotionError):
        validate_entry(entry, registry)


# -- legacy migration path ----------------------------------------------------


def test_pre_gate_entries_classify_legacy():
    floor = ".".join(map(str, GATE_FLOOR_VERSION))
    assert entry_class({"experiment_id": "OB2", "repo_version": "1.0.0"}) == "legacy"
    assert entry_class({"experiment_id": "OB2", "repo_version": floor}) == "gated"
    # Carrying a run_key makes a point gated at any version.
    assert entry_class({"experiment_id": "OB2", "repo_version": "1.0.0",
                        "run_key": "0" * 64}) == "gated"


def test_legacy_entries_audit_but_cannot_be_promoted(registry, tmp_path):
    legacy = {"experiment_id": "GT1", "repo_version": "1.0.0",
              "seed": "bench/gt1", "ms": 9.9}
    assert validate_entry(legacy, registry)["status"] == "legacy-pre-gate"
    with pytest.raises(PromotionError, match="legacy"):
        promote(tmp_path / "BENCH_PERF.json", legacy, registry)


def test_audit_file_strict_and_lenient(registry, scenario, tmp_path):
    path = tmp_path / "BENCH_PERF.json"
    path.write_text(json.dumps([
        good_entry(scenario),
        good_entry(scenario, run_key="0" * 64, repo_version="9.9.9"),
    ]))
    with pytest.raises(PromotionError):
        audit_file(path, registry)
    reports = audit_file(path, registry, strict=False)
    assert [r["status"] for r in reports] == ["accepted", "rejected"]
    assert "run_key mismatch" in reports[1]["reason"]


def test_audit_of_missing_file_is_empty(registry, tmp_path):
    assert audit_file(tmp_path / "nope.json", registry) == []


# -- regression: the committed trajectory stays eligible ----------------------


def test_committed_trajectory_passes_the_gate():
    """Every point in the repo's own BENCH_PERF.json must replay clean
    through the gate under the default registry — legacy points as
    stamped history, gated points fully validated."""
    path = REPO_ROOT / "benchmarks" / "results" / "BENCH_PERF.json"
    reports = audit_file(path, DEFAULT_REGISTRY)
    assert reports, "trajectory file is missing or empty"
    assert {r["status"] for r in reports} <= {"accepted", "legacy-pre-gate"}
    entries = json.loads(path.read_text())
    for entry in entries:
        assert entry.get("gate") in ("legacy-pre-gate", "accepted")
