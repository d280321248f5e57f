"""The registry: specs bound to runners, identity-stamped execution."""

import json

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
    assert len(SCENARIOS.ids()) == 24
    assert [s.spec.scenario_id for s in SCENARIOS if not s.spec.expect] == []


#: Run keys at code version 1.5.0 under canonicalization scheme v3 and
#: seed scheme ``pt002-hmac-sha256/v2``.
#: ``expect`` (like ``title``) is a verdict on a run, not an input to
#: it, so declaring or editing a contract must leave every key — and
#: the ``run_key`` stamped into every committed artifact — where it was.
PINNED_VERSION = "1.5.0"
PINNED_RUN_KEYS = {
    "A1": "2f87bd4338f522605570fb7a5cf12c22d97884e221983b010c633f0249e6a72a",
    "CR1": "2a4b128ef017f9f29b6e22efae415d10cd04a3da7474fe7757790e14256591f6",
    "F1": "91a2f151eb11925cee31e72519a28be0539dcd95cc5e5fb42f846838306e69bc",
    "F2": "c9fb01fd7e79635305d4bb052781b3cf727421ff5c17cef5aa4f4f853fd00f68",
    "F3": "d5ce07968eb52e06cdb062c3dfec39454b0c12490974763c49db27b01122653b",
    "F4": "8af2791e06dda71325240bb43ff353f185e3bc709eb813e4252eea0c078834f6",
    "F5": "9218278649397e42284162ff94e6b73c191bcc2c86a73454362f22332b480f8f",
    "F6": "830e5b0d328a448a74ffc9ee7a1e1a53b49ffa7b6e6620a4ed7396daa62b555f",
    "FC1": "791ecb7b16165362c8871eab169d6b716d6475b54b801d182e48a46d69323e28",
    "OB1": "e2a575a56991786fbd252fd75cf8aca2875622e747fc2e22af90dca35cffa5ac",
    "OB2": "08ed0e91aa3d706ced8e54ec96c7e670079038dfb0d95e91877a29dfdb398dfc",
    "OB3": "2e45e3c8f9d4a7e0c614b3e5c18561d20400d0876c4bf9f3ef9dd5904a4421dc",
    "OB4": "7d381a91d1bd55a22c0de510dff753dc9974e5456eabb5990eb3b57fbf9abe5f",
    "R1": "7f7a6bd1444ab1d93c9bcc3726a95149fba87fb3cffe3240be8f2bb9f7b5ba8f",
    "RP1": "cb7cc5a900d365d8afdb284e2f48fd759b1ac49ffa81c81b43e98f9e70e7a762",
    "RP2": "632d49359c2764ca8ce5e86754c4f18a920f13a995050e1c221f4ad90a921246",
    "S3": "c32a0332a52a962dfd7f9d910ae366e21fd84c25142ee1d1da46c6b5b0dc27ad",
    "S4": "bc6251b6f6ae0cc813c3e6a0dd5cd9167b4d5489e41af8d9562a6ed7ce328dc0",
    "S5": "731b6d1ea601e7d6e3775d43971232dea0223df1aa5cc2bcf18d9262706eeef6",
    "S6": "565b496d030c52a6d7f55d1a111ad951048f1cc4c8725d9842c862eb2433dece",
    "T1": "4c2dd04b2ffe4e0ac390dd7db11a3f5f832dab9f7600cd065b19a5c61c58c5ba",
    "TP1": "8644d44d184d9e9ba5173640c7d7ec796c265bbb457c5739cf5f861bab13d73c",
    "TP2": "8c1e02ad831c63138ec28c4ab5bbf2bec81c3cd79945e776b932f6fab4c58a75",
    "W1": "99a4cf2190887db4fec4b9987a9d1a615c3eacc86e3d58f3620bb10ad7540492",
}


def test_run_keys_are_pinned():
    assert {s.spec.scenario_id: s.run_key(PINNED_VERSION)
            for s in SCENARIOS} == PINNED_RUN_KEYS


@pytest.mark.parametrize("scenario_id,root,workload", [
    ("FC1", "exp/fc1", {"n_plans": 50}),
    ("CR1", "exp/cr1", {"n_plans": 100}),
    ("OB1", "exp/ob1", {}),
    ("OB2", "exp/ob2", {"n_plans": 100}),
    ("OB3", "exp/ob3", {"n_plans": 24}),
    ("TP1", "exp/tp1", {}),
    ("TP2", "exp/tp2", {}),
    ("RP1", "exp/rp1", {"n_plans": 60}),
    ("RP2", "exp/rp2", {}),
])
def test_campaign_scenarios_carry_their_specs(scenario_id, root, workload):
    spec = SCENARIOS.get(scenario_id).spec
    assert spec.root_seed == root
    assert dict(spec.workload) == workload


def test_invariance_contracts_are_declared():
    # Each scenario's core invariance is a fact of its one contract.
    for scenario_id, fact in (
        ("TP1", "cache_toggle_signature_identical"),
        ("TP2", "shard_signature_invariant_1_2_4_8"),
        ("OB3", "sketch_merge_exact"),
        ("OB4", "profile_artifacts_shard_invariant_1_2_4_8"),
        ("OB4", "critical_path_reconciles"),
        ("RP1", "all_faults_masked_or_detected"),
        ("OB2", "no_false_positives"),
    ):
        assert SCENARIOS.get(scenario_id).spec.expect[fact] is True


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
    assert "NOPE" not in SCENARIOS.ids()
    assert "TP1" in SCENARIOS.ids()


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
                     repetitions=3),
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
    assert result.meta["seed_scheme"] == "pt002-hmac-sha256/v2"
    # The stamp is scoped to the run: nothing leaks afterwards.
    assert current_stamp() is None
    assert "run_key" not in run_meta(b"exp/bare")


def test_repetitions_derive_their_own_seeds(probe_registry):
    scenario = probe_registry.get("PRB")
    rep1 = scenario.run(repetition=1)
    assert rep1.meta["repetition"] == 1
    assert rep1.meta["seed"] == scenario.seed(1).decode()
    assert rep1.meta["seed"] != "exp/prb"
    with pytest.raises(ReproError):
        scenario.run(repetition=3)  # outside the registered spec


def test_describe_exposes_derived_seeds(probe_registry):
    described = probe_registry.get("PRB").describe()
    assert described["seeds"]["rep0"] == "exp/prb"
    assert len(described["seeds"]) == 3
    assert described["seeds"]["rep1"] != "exp/prb"
    assert described["run_key"] == probe_registry.get("PRB").run_key()
    assert "title" not in described["spec"]  # cosmetic, outside the hash


def test_runner_defaults_introspection():
    assert runner_defaults(_probe_runner) == {"knob": 7}


def test_canonical_result_json_is_stable(probe_registry):
    scenario = probe_registry.get("PRB")
    a, b = scenario.run(), scenario.run()
    assert canonical_result_json(a) == canonical_result_json(b)
    assert json.loads(canonical_result_json(a))["meta"] == a.meta


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


# -- counted facts flip when the property they guard breaks -------------------


def _unbatched(monkeypatch):
    import repro.engine

    run_pool = repro.engine.run_pool
    monkeypatch.setattr(repro.engine, "run_pool",
                        lambda *a, **kw: run_pool(*a, **{**kw, "batch_size": None}))


def _always_profiled(monkeypatch):
    import repro.engine

    run_pool = repro.engine.run_pool
    monkeypatch.setattr(repro.engine, "run_pool",
                        lambda *a, **kw: run_pool(*a, **{**kw, "profile": True}))


def _forgetful_directory(monkeypatch):
    import repro.engine

    class Forgetful(repro.engine.TenantDirectory):
        def identity(self, name):
            self._identities.pop(name, None)
            return super().identity(name)

    monkeypatch.setattr(repro.engine, "TenantDirectory", Forgetful)


def _live_bundle_when_unobserved(monkeypatch):
    from repro.analysis import experiments
    from repro.obs import Observability

    make_deployment = experiments.make_deployment

    def leaky(*a, **kw):
        dep = make_deployment(*a, **kw)
        if not kw.get("observe"):
            dep.network.obs = Observability(clock=lambda: dep.sim.now)
        return dep

    monkeypatch.setattr(experiments, "make_deployment", leaky)


def _forensics_always_on(monkeypatch):
    import repro.net.faults

    class Forensic(repro.net.faults.CampaignRunner):
        def __init__(self, *a, **kw):
            super().__init__(*a, **{**kw, "forensics": True})

    monkeypatch.setattr(repro.net.faults, "CampaignRunner", Forensic)


@pytest.mark.parametrize("scenario_id,mutate,broken", [
    # Batching off: every shard count pays the classic 144.
    ("TP2", _unbatched, "1/rsa_private_ops: got 144, expected 18"),
    ("TP1", _forgetful_directory, "warm_run_keygens: got 10, expected 0"),
    ("OB1", _live_bundle_when_unobserved,
     "disabled_path_records_nothing: got False, expected True"),
    ("OB2", _forensics_always_on,
     "forensics_off_builds_no_auditor: got False, expected True"),
    ("OB4", _always_profiled,
     "unprofiled_run_records_no_regions: got False, expected True"),
], ids=["TP2-batching-off", "TP1-keys-not-amortized", "OB1-live-registry",
        "OB2-forensics-on", "OB4-profiler-on"])
def test_counted_fact_breaks_with_its_property(monkeypatch, scenario_id,
                                               mutate, broken):
    scenario = SCENARIOS.get(scenario_id)
    mutate(monkeypatch)
    assert broken in scenario.check(scenario.run())
