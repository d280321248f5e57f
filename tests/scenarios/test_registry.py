"""The registry: specs bound to runners, identity-stamped execution."""

import pytest

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.errors import ReproError
from repro.scenarios import (
    SCENARIOS,
    RunStamp,
    ScenarioRegistry,
    ScenarioSpec,
    canonical_result_json,
    current_stamp,
    runner_defaults,
    stamped,
)

# -- default registry covers every experiment ---------------------------------


def test_every_spec_declares_an_expect_contract():
    assert len(SCENARIOS) == 24
    assert [s.spec.scenario_id for s in SCENARIOS if not s.spec.expect] == []


#: Run keys at code version 1.5.0.  ``expect`` (like ``title``) is a
#: verdict on a run, not an input to it, so declaring or editing a
#: contract must leave every key — and every gated BENCH_PERF.json
#: point — where it was.
PINNED_VERSION = "1.5.0"
PINNED_RUN_KEYS = {
    "A1": "5c9768fe0ca8a11cf039cdb18057994836cdfd3da7ae5371e7ebf4bcfe989cd9",
    "CR1": "5cbc5e6e6aca658c1dcbbd50de5eef9e2d27bde74b7d204dee0f450f0147296d",
    "F1": "5aeca78839f5ca07c1bc3a50645e2472229229aca1ce549c45d4626d132c187d",
    "F2": "7e267498a4fec1ac26ec8baefb382333d8487898e297426050a4ef8a105d89fc",
    "F3": "78ef54d36aaf0416a7f83c08f3ff03c6d8f9a1acf01b4d15c5e25ea26f7650d4",
    "F4": "4daddca567ec274b33bea2e709e4d34f89a946869c746d6cab270eb7e8009485",
    "F5": "872d4c3b66b672fd273b61ed6ad9226fcb190e749e0d4691cf43538fad9d5c7a",
    "F6": "94b59bc98a0a219bb54a946d5693b6dce042f40f8d62fc017d6ed6478261df6c",
    "FC1": "7d22c549f5452329d2a0370cb42ab38430717b1ab650286e3a28711f626f3301",
    "OB1": "3ffe2a25a607552de4f38d1cece6161e55a87d298f462d9dbb20822e3d4c4119",
    "OB2": "40ea3bc948822769bb3b55af9eb89473eb00404ae8cf38e8188967f5e96ac2c4",
    "OB3": "25c9d288193bd90af95a2fba6cca2d9af856db533fbbab98442c2800f4166baa",
    "OB4": "c8133fb2b250421185e4c1e9f8bb775c0cc5763939739dd820304d75cd2cb9bf",
    "R1": "df978bc00690e3ccd1d25cd223f3dd62d7bd9f271259f49e2ebd76de4bd1064c",
    "RP1": "49b1e2e8a1c5c3aa23448e512110f4b1264fca51663ac391f2b7106bbe030498",
    "RP2": "6708a2d9e8e53dc37f135b96d3c811c420d61bf12937c3b2af4d520837cf209b",
    "S3": "6a7542cd54c85858692569c1da7e00b40bdd97760929343044f752f8e92df7b3",
    "S4": "cb6ba8db97d951d9d51e6d94a7f322b557b3c5b8845b76b59707e79ef42981d8",
    "S5": "bc0f462fe23b1de61a9036f3348cb1e7cf23c6b27c7339219ab22e12e53413ea",
    "S6": "bbac45f5f30c36278130a7d20d0024af71a5f1afa92852088bbb7468959eef3a",
    "T1": "b1575b6f509ff4103f90e17bbecfafc5ce0865764d0ce0f5a0b4beb4dbabf815",
    "TP1": "11af8f8e5b0cbb19df728f83b9de21388b6ae94b61c1784d615103c55436bac3",
    "TP2": "84c193f5b7143c1d1bff3d00954855470a9e9826cb97a7b6182bffec5da89908",
    "W1": "0e24ed8ebd5099082b122f107e08294630452ebcab3df54d4a877df486d05dab",
}


def test_run_keys_are_pinned():
    assert {s.spec.scenario_id: s.run_key(PINNED_VERSION)
            for s in SCENARIOS} == PINNED_RUN_KEYS


@pytest.mark.parametrize("scenario_id,root,workload,stages", [
    ("FC1", "exp/fc1", {"n_plans": 50}, ()),
    ("CR1", "exp/cr1", {"n_plans": 100}, ()),
    ("OB1", "exp/ob1", {}, ("overhead",)),
    ("OB2", "exp/ob2", {"n_plans": 100}, ("cost", "overhead")),
    ("OB3", "exp/ob3", {"n_plans": 24}, ("perf",)),
    ("TP1", "exp/tp1", {}, ("perf", "perf-1000")),
    ("TP2", "exp/tp2", {}, ("perf", "perf-10k")),
    ("RP1", "exp/rp1", {"n_plans": 60}, ("perf",)),
    ("RP2", "exp/rp2", {}, ()),
])
def test_campaign_scenarios_carry_their_specs(scenario_id, root, workload, stages):
    spec = SCENARIOS.get(scenario_id).spec
    assert spec.root_seed == root
    assert dict(spec.workload) == workload
    assert spec.stages == stages


def test_invariance_contracts_are_declared():
    assert SCENARIOS.get("TP1").spec.checks_for("perf") == (
        "cache_toggle_signature_identical",)
    assert SCENARIOS.get("OB2").spec.checks_for("cost") == (
        "clean_reconstruction_zero_findings",)
    assert SCENARIOS.get("RP1").spec.checks_for("perf") == (
        "all_faults_masked_or_detected",)
    assert SCENARIOS.get("OB3").spec.checks_for("perf") == (
        "sketch_merge_equivalent_and_alerts_deterministic",)
    assert SCENARIOS.get("TP1").spec.checks_for("perf-1000") == ()
    assert SCENARIOS.get("TP2").spec.checks_for("perf") == (
        "shard_signature_invariant_1_2_4_8",)
    assert SCENARIOS.get("TP2").spec.checks_for("perf-10k") == ()


def test_run_keys_are_distinct_across_scenarios():
    keys = [s.run_key() for s in SCENARIOS]
    assert len(set(keys)) == len(keys)
    assert all(len(k) == 64 for k in keys)


def test_workload_knobs_are_validated_against_the_runner_signature():
    registry = ScenarioRegistry()
    with pytest.raises(ReproError):
        registry.register(
            ScenarioSpec("BAD1", "bad", "experiment_fault_campaign", "exp/bad",
                         workload={"not_a_knob": 1}))
    with pytest.raises(ReproError):
        registry.register(
            ScenarioSpec("BAD2", "bad", "no_such_runner", "exp/bad"))


def test_duplicate_registration_rejected():
    registry = ScenarioRegistry()
    spec = ScenarioSpec("X1", "x", "experiment_table1", "exp/x")
    registry.register(spec)
    with pytest.raises(ReproError):
        registry.register(spec)


def test_unknown_scenario_is_an_error():
    with pytest.raises(ReproError):
        SCENARIOS.get("NOPE")
    assert "NOPE" not in SCENARIOS
    assert "TP1" in SCENARIOS


# -- identity-stamped execution -----------------------------------------------


def _probe_runner(seed: bytes, knob: int = 7) -> ExperimentResult:
    """A runner that reports what identity the writers saw."""
    return ExperimentResult(
        experiment_id="PRB",
        title="probe",
        headers=["k", "v"],
        rows=[["knob", knob]],
        facts={"knob": knob},
        notes="",
        meta=run_meta(seed),
    )


@pytest.fixture
def probe_registry():
    registry = ScenarioRegistry()
    registry.register(
        ScenarioSpec("PRB", "probe scenario", "_probe_runner", "exp/prb",
                     repetitions=3, stages=("perf",),
                     nondeterministic_meta=("wall_ms",)),
        runner=_probe_runner)
    return registry


def test_run_stamps_the_result_meta(probe_registry):
    scenario = probe_registry.get("PRB")
    result = scenario.run()
    assert result.meta["run_key"] == scenario.run_key()
    assert result.meta["scenario"] == "PRB"
    assert result.meta["stage"] == "experiment"
    assert result.meta["repetition"] == 0
    assert result.meta["seed"] == "exp/prb"
    assert result.meta["seed_scheme"] == "pt002-hmac-sha256/v1"
    # The stamp is scoped to the run: nothing leaks afterwards.
    assert current_stamp() is None
    assert "run_key" not in run_meta(b"exp/bare")


def test_repetitions_derive_their_own_seeds(probe_registry):
    scenario = probe_registry.get("PRB")
    rep1 = scenario.run(repetition=1)
    assert rep1.meta["repetition"] == 1
    assert rep1.meta["seed"] == scenario.seed("experiment", 1).decode()
    assert rep1.meta["seed"] != "exp/prb"
    with pytest.raises(ReproError):
        scenario.run(repetition=3)  # outside the registered spec


def test_stage_context_installs_stage_identity(probe_registry):
    scenario = probe_registry.get("PRB")
    with scenario.stage_context("perf") as seed:
        assert seed == scenario.seed("perf")
        meta = run_meta(seed)
        assert meta["run_key"] == scenario.run_key()
        assert meta["stage"] == "perf"
        assert meta["seed"] == seed.decode()
    assert current_stamp() is None


def test_perf_entry_shape(probe_registry):
    scenario = probe_registry.get("PRB")
    entry = scenario.perf_entry("perf", invariance={"sig_ok": True}, ms=1.5)
    assert entry["experiment_id"] == entry["scenario"] == "PRB"
    assert entry["stage"] == "perf"
    assert entry["run_key"] == scenario.run_key()
    assert entry["seed"] == scenario.seed("perf").decode()
    assert entry["invariance"] == {"sig_ok": True}
    assert entry["ms"] == 1.5
    sub = scenario.perf_entry("perf", experiment_id="PRB-extra")
    assert sub["experiment_id"] == "PRB-extra" and sub["scenario"] == "PRB"


def test_describe_exposes_derived_seeds(probe_registry):
    described = probe_registry.get("PRB").describe()
    assert described["seeds"]["experiment"]["rep0"] == "exp/prb"
    assert len(described["seeds"]["experiment"]) == 3
    assert described["seeds"]["perf"]["rep0"] != "exp/prb"
    assert described["run_key"] == probe_registry.get("PRB").run_key()
    assert "title" not in described["spec"]  # cosmetic, outside the hash


def test_runner_defaults_introspection():
    assert runner_defaults(_probe_runner) == {"knob": 7}


def test_canonical_result_json_is_stable_and_strips_nondeterminism(probe_registry):
    scenario = probe_registry.get("PRB")
    a, b = scenario.run(), scenario.run()
    a.meta["wall_ms"] = 12.3
    b.meta["wall_ms"] = 45.6
    spec = scenario.spec
    assert canonical_result_json(a, spec) == canonical_result_json(b, spec)
    assert "wall_ms" not in canonical_result_json(a, spec)


def test_stamped_context_is_reentrant_and_scoped():
    stamp = RunStamp(run_key="k" * 64, scenario="S", stage="experiment",
                     repetition=0, seed="s", seed_scheme="x")
    assert current_stamp() is None
    with stamped(stamp):
        assert current_stamp() is stamp
        inner = RunStamp(run_key="j" * 64, scenario="S2", stage="perf",
                         repetition=1, seed="t", seed_scheme="x")
        with stamped(inner):
            assert current_stamp() is inner
        assert current_stamp() is stamp
    assert current_stamp() is None


# -- the expect contract ------------------------------------------------------


def test_check_is_fail_closed():
    registry = ScenarioRegistry()
    spec = ScenarioSpec("PRC", "probe", "_probe_runner", "exp/prc",
                        workload={"knob": 1}, expect={"knob": 1})
    result = registry.register(spec, runner=_probe_runner).run()
    for expect, broken in (
        ({"knob": 1}, []),
        ({"knob": 2}, ["knob: got 1, expected 2"]),
        ({"knob": True}, ["knob: got 1, expected True"]),  # bool is not 1
        ({"absent": 0}, ["absent: missing (expected 0)"]),
    ):
        scenario = ScenarioRegistry().register(
            spec.with_overrides(expect=expect), runner=_probe_runner)
        assert scenario.check(result) == broken


def test_expect_stays_out_of_the_run_key():
    scenario = SCENARIOS.get("F5")
    edited = scenario.spec.with_overrides(expect={"anything": 1})
    registry = ScenarioRegistry()
    assert registry.register(edited, runner=scenario.runner).run_key() \
        == scenario.run_key()


def test_ids_match_case_insensitively():
    assert SCENARIOS.get("tp1") is SCENARIOS.get("TP1")
    registry = ScenarioRegistry()
    registry.register(ScenarioSpec("X1", "x", "experiment_table1", "exp/x"))
    with pytest.raises(ReproError):
        registry.register(ScenarioSpec("x1", "x", "experiment_table1", "exp/x"))
