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


#: Run keys at code version 1.5.0 under canonicalization scheme v2.
#: ``expect`` (like ``title``) is a verdict on a run, not an input to
#: it, so declaring or editing a contract must leave every key — and
#: the ``run_key`` stamped into every committed artifact — where it was.
PINNED_VERSION = "1.5.0"
PINNED_RUN_KEYS = {
    "A1": "1d1386a8765a1a986da6a3a7ccdfe737ef346be48a3cd8350844c86b7029f6d3",
    "CR1": "0bf1f75a9784a510a4b269316b7a16162249114750d4142d81d43ea5790ec280",
    "F1": "4162b5d3ba6b91f92de46503cd71331e4b9493468113186451ccca36101da936",
    "F2": "078f036727f5de8f2c4223668f101a4e5aee3587a0b2a689aa412f2fe19a063e",
    "F3": "41325a56ecae3b1841c855a3addbf9d23e6f19651a8550ef9e696040e79779d4",
    "F4": "2631636bdc02dd308eed4cca34daf1ba226fca1b22f52953bccc6b23f580d8df",
    "F5": "ffe0ee3468459b4637191b5adac4e55f6b67c61e69b802c223d72bd79e8d0a11",
    "F6": "fcc0d823549b6b51aba46ec2b72409db4b22ac07e15b50ec1776ba9f0f49134d",
    "FC1": "89cb3c5271bd764752f2f936ec07211589e972bcb193cb198a3874210d002cb6",
    "OB1": "ddd5707412068e27fab5e88b3ed413af3b6d542df80faa394193f3ff4b48415c",
    "OB2": "47baed106da638986bc5ee4dfb398ae335066dcdaccf6ba35f8746eb23a0bbd4",
    "OB3": "3fef82f8112cecf9bbf3b6e766261f30b032d7153827219d6feccdfbdb7f3180",
    "OB4": "93a01aefb998effe4e426fa4d6513de66477ad15ec278d6082874cb428d99276",
    "R1": "eb74e4eaad1a42efa2b6b43592717dfaa0f11dd055c22330069fc9f4521e0b93",
    "RP1": "acd750f68d108250ed03965661cb2bcab6f7dc4f8e4ae1cd53c8c1bbd46f87f7",
    "RP2": "8ce7ad811cca7c1372a083b8da680091ae051972a5edcb454363df7aec8b9e64",
    "S3": "573f35cc0bffeea56755bab72ce40bf1711518395ea20c63789de746be9c0cfa",
    "S4": "3e95f1384e4fcb7eb2feda21538b77382df56b2951191d4c5dd056185f3fd08c",
    "S5": "43771fa71719e88ddfb3c58adda62f75098a2c417db3035083f1f768b5774edc",
    "S6": "66abcf72a175d129302e1703c2daea661f7083600be98c8e053eb7976cf77561",
    "T1": "adedb52a8b4c681ac5f6db96bb18ab5c8463f34378e7ee3866a7f6d979441003",
    "TP1": "7a4eb48d2b1255482a9af173faa69bf55196ec7c766f7d23cb98d14843578fb2",
    "TP2": "db572a4526fcf07ebf13a44da64effec6cc2563f229bd8da4f06857e9235d21d",
    "W1": "3eb06b6aaaa97ffda4942343090b674757177598126a51e5b3fc9ec5b9d0f4bb",
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
                     repetitions=3, nondeterministic_meta=("wall_ms",)),
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
