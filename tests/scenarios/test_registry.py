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
    assert len(SCENARIOS) == 24
    assert [s.spec.scenario_id for s in SCENARIOS if not s.spec.expect] == []


#: Run keys at code version 1.5.0 under canonicalization scheme v3.
#: ``expect`` (like ``title``) is a verdict on a run, not an input to
#: it, so declaring or editing a contract must leave every key — and
#: the ``run_key`` stamped into every committed artifact — where it was.
PINNED_VERSION = "1.5.0"
PINNED_RUN_KEYS = {
    "A1": "5b99bde5bb0e33552237f25773e7bfe2171eced56dd78f7c46859f49f734457e",
    "CR1": "b82103f6df8459b4451eabbe592a31db2eaa4577752f5fcec458b929f591a5d0",
    "F1": "e4f8f08c5b10f08b31032840d6bcd452efaf3de36ed48f089ac138896258f1f0",
    "F2": "41c865f5ccb09b781aeb23c6893c5fdea5b0300c59741a9040c0980a2438ede3",
    "F3": "f2ae25ba3f1a239ffa5b93720bbb224303006ff10ac616124796c231419c7512",
    "F4": "aedb0bde35de7623f29970b6c821ffb0aa53baa4ae59fa6775d73e1f1e91d054",
    "F5": "64b00bea83b5e7a8b7c06ac7e4141729a3a06d61e8b077d784bc161a7075c2ce",
    "F6": "d6c371505b5de089ac8bc0821dd97d4dae0fabf2fc3c62325bad531ab2b52c8e",
    "FC1": "8c2ee1bf9f7f625184978b2bc660d816a37550bf67351e63352b64572210df77",
    "OB1": "3cd6af9ec79aaaa36640995a77e8b1c9522bf23f211f7ffcc36245bdad551dd9",
    "OB2": "207d11d20ea66174ee03472a534716b9c7f80c16396380d7159a4e5de339b0c0",
    "OB3": "5685125f642d0cd9a04f32fc0f0d05504db7440eb9e3e6c1e2d6e07a047b682d",
    "OB4": "481bfa7afb1433835649e12a82c8402e1ce2fc28ac339094abca5a127234ea47",
    "R1": "01e4d9fe7e0f10b431c1275c98b012155f09695020787df88716e4c4d71cbe73",
    "RP1": "64c339615e63accf3747132d6dff5ae0fb78f0f3e19ae3d1917d3b7d9ef69065",
    "RP2": "68b01b4ef2ed358f745cfd532418533338dfeeee15e28b980d39a790a989a1ee",
    "S3": "8bcc6fc568cb4cca08d9111cfe635d16a03298a6297849f912747da4e3714d80",
    "S4": "61369665ee862780ecafcd5c6991dfc098819286e4e27fc980a7f78767076db2",
    "S5": "bb2039ba25e4aa7c263d503e97ec1433742ad50a1c39168276b7bf50a46ff516",
    "S6": "c0722dd4fd0f8b2f80be5b8945ea8c657f65a69bdb65d3e5bddd44dad0f66efb",
    "T1": "77bfe27622efc4377f424d40b4ee0e68faf71c0bb4015a2fd54a4d2ef49f358c",
    "TP1": "13d7c400eb3adcc165ddf5b54b8e0e394dc30f8d04e485de1878811ff60475d2",
    "TP2": "49c00768b81679ee026c166759066c15cc922a2e3fdd1ffa65bc2f7d8ea57090",
    "W1": "9184c62666180b118ac8a42e0615b35607334f77efc65b456475d7df56d62459",
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
    assert result.meta["seed_scheme"] == "pt002-hmac-sha256/v1"
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
    # Batching off: every shard count pays the classic 162.
    ("TP2", _unbatched, "1/rsa_private_ops: got 162, expected 36"),
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
