"""The scenario registry: every experiment the repo can run, as data.

One :class:`ScenarioRegistry` maps scenario ids to
:class:`~repro.scenarios.spec.ScenarioSpec` + resolved runner pairs.
The registry is what turns a spec into a run:

* it introspects the runner's signature so workload knobs are
  validated against the code and knob *defaults* never have to be
  restated (they fold out of the run key — see ``canonical_spec``);
* :meth:`RegisteredScenario.run` derives the repetition seed, installs
  the :class:`~repro.scenarios.context.RunStamp` so every metadata
  writer emits the run identity, and calls the runner;
* :meth:`RegisteredScenario.check` compares a result's facts with the
  spec's ``expect`` contract — the one statement of what each run must
  show, read by the tier-1 tests, ``repro scenario run`` and
  ``benchmarks/bench_scenarios.py`` alike;
* :func:`canonical_result_json` serializes an
  :class:`~repro.analysis.experiments.ExperimentResult` byte-stably
  (sorted keys) — the form the
  cross-seed determinism tests compare and the committed artifacts use.

``DEFAULT_REGISTRY`` registers all twenty-four experiments.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from typing import Any, Callable, Iterator

from ..errors import ReproError
from .context import RunStamp, stamped
from .seeds import SEED_SCHEME
from .spec import ScenarioSpec, compute_run_key

__all__ = [
    "RegisteredScenario",
    "ScenarioRegistry",
    "DEFAULT_REGISTRY",
    "SCENARIOS",
    "canonical_result_json",
]


def runner_defaults(runner: Callable) -> dict[str, Any]:
    """The runner's own keyword defaults, ``seed`` excluded."""
    return {
        name: p.default
        for name, p in inspect.signature(runner).parameters.items()
        if name != "seed" and p.default is not inspect.Parameter.empty
    }


class RegisteredScenario:
    """A spec bound to its resolved runner."""

    def __init__(self, spec: ScenarioSpec, runner: Callable) -> None:
        params = inspect.signature(runner).parameters
        unknown = [k for k in spec.workload if k not in params or k == "seed"]
        if unknown:
            raise ReproError(
                f"scenario {spec.scenario_id!r}: workload knobs {unknown} "
                f"are not parameters of {spec.runner}")
        self.spec = spec
        self.runner = runner
        self.defaults = runner_defaults(runner)

    # -- identity ----------------------------------------------------------

    def run_key(self, version: str | None = None) -> str:
        """Content address of this scenario at *version* (default: current)."""
        return compute_run_key(self.spec, self.defaults, version)

    def seed(self, repetition: int = 0) -> bytes:
        return self.spec.seed(repetition)

    def reseeded(self, root_seed: str) -> "RegisteredScenario":
        """The same scenario under another root seed (a new run key)."""
        return RegisteredScenario(self.spec.with_overrides(root_seed=root_seed),
                                  self.runner)

    def stamp(self, repetition: int = 0) -> RunStamp:
        return RunStamp(
            run_key=self.run_key(),
            scenario=self.spec.scenario_id,
            stage="experiment",
            repetition=repetition,
            seed=self.seed(repetition).decode("latin-1"),
            seed_scheme=SEED_SCHEME,
        )

    def describe(self) -> dict[str, Any]:
        """Spec + derived identity, for ``repro scenario describe``."""
        from .spec import canonical_spec

        return {
            "title": self.spec.title,
            "spec": canonical_spec(self.spec, self.defaults),
            "run_key": self.run_key(),
            "seed_scheme": SEED_SCHEME,
            "seeds": {
                f"rep{r}": self.seed(r).decode("latin-1")
                for r in range(self.spec.repetitions)
            },
            "expect": dict(sorted(self.spec.expect.items())),
        }

    def check(self, result) -> list[str]:
        """The facts of *result* that break the ``expect`` contract.

        Fail-closed: a fact the run did not report is a mismatch, and a
        bool never stands in for a number (``True == 1`` in Python).
        An empty list means the run shows everything its spec declares.
        """
        mismatches = []
        for name, want in sorted(self.spec.expect.items()):
            if name not in result.facts:
                mismatches.append(f"{name}: missing (expected {want!r})")
                continue
            got = result.facts[name]
            if got != want or isinstance(got, bool) != isinstance(want, bool):
                mismatches.append(f"{name}: got {got!r}, expected {want!r}")
        return mismatches

    # -- execution ---------------------------------------------------------

    def run(self, repetition: int = 0):
        """Run the experiment at *repetition*, identity-stamped."""
        if repetition >= self.spec.repetitions:
            raise ReproError(
                f"scenario {self.spec.scenario_id!r} declares "
                f"{self.spec.repetitions} repetition(s); rep {repetition} "
                "is outside the registered spec")
        with stamped(self.stamp(repetition)):
            return self.runner(seed=self.seed(repetition),
                               **dict(self.spec.workload))


class ScenarioRegistry:
    """Scenario ids -> registered scenarios, in registration order."""

    def __init__(self) -> None:
        self._scenarios: dict[str, RegisteredScenario] = {}

    def register(self, spec: ScenarioSpec,
                 runner: Callable | None = None) -> RegisteredScenario:
        """Register *spec*, resolving its runner by name if not given."""
        if any(k.upper() == spec.scenario_id.upper() for k in self._scenarios):
            raise ReproError(f"scenario {spec.scenario_id!r} already registered")
        if runner is None:
            from ..analysis import experiments as exp

            runner = getattr(exp, spec.runner, None)
            if runner is None:
                raise ReproError(
                    f"scenario {spec.scenario_id!r}: no runner "
                    f"{spec.runner!r} in repro.analysis.experiments")
        registered = RegisteredScenario(spec, runner)
        self._scenarios[spec.scenario_id] = registered
        return registered

    def get(self, scenario_id: str) -> RegisteredScenario:
        """Look up a scenario; ids match case-insensitively."""
        for known, scenario in self._scenarios.items():
            if known.upper() == scenario_id.upper():
                return scenario
        raise ReproError(
            f"unknown scenario {scenario_id!r} "
            f"(registered: {', '.join(self._scenarios) or 'none'})")

    def ids(self) -> list[str]:
        return list(self._scenarios)

    def __iter__(self) -> Iterator[RegisteredScenario]:
        return iter(self._scenarios.values())


def canonical_result_json(result) -> str:
    """Byte-stable serialization of an ExperimentResult.

    Sorted keys throughout; every field is a pure function of the seed,
    so two same-seed runs of a registered scenario must serialize
    byte-identically.
    """
    record = dataclasses.asdict(result)
    record["rows"] = [
        [c if isinstance(c, (str, int, float, bool, type(None))) else repr(c)
         for c in row]
        for row in record["rows"]
    ]
    return json.dumps(record, sort_keys=True, indent=2, default=repr)


def _all_true(*names: str) -> dict[str, bool]:
    return dict.fromkeys(names, True)


_DETECTION_MODES = ("bit-flip", "replace", "fixup-md5")
_BRIDGED_SCHEMES = ("nn", "sks", "tac", "both")
_S4_PAYLOADS = (1 << 10, 1 << 14, 1 << 18)
_W1_CLIENTS = (1, 2, 4, 8)


def _default_specs() -> list[ScenarioSpec]:
    return [
        ScenarioSpec("T1", "Table 1 — REST PUT/GET with SharedKey auth",
                     "experiment_table1", "exp/t1",
                     expect=_all_true("put_ok", "get_ok", "forged_rejected",
                                      "md5_round_tripped")),
        ScenarioSpec("F1", "Fig. 1 — cloud computing principle",
                     "experiment_fig1", "exp/f1",
                     expect={"all_answered": True, "total_requests": 40,
                             "total_responses": 40}),
        ScenarioSpec("F2", "Fig. 2 — AWS Import/Export flow",
                     "experiment_fig2", "exp/f2",
                     expect={"all_jobs_completed": True, "jobs": 3}),
        ScenarioSpec("F3", "Fig. 3 — Azure secure data access",
                     "experiment_fig3", "exp/f3",
                     expect={"round_trip_ok": True, "wrong_key_rejected": True,
                             "secret_key_bits": 256}),
        ScenarioSpec("F4", "Fig. 4 — Google SDC work flow",
                     "experiment_fig4", "exp/f4",
                     expect=_all_true("authorized_allowed", "rule_enforced",
                                      "tunnel_enforced", "replay_blocked")),
        ScenarioSpec("F5", "Fig. 5 — the integrity vulnerability",
                     "experiment_fig5", "exp/f5",
                     workload={"trials": 5},
                     # Azure's stored MD5 catches only naive tampering,
                     # AWS's recomputed MD5 nothing; TPNR detects and
                     # attributes every mode.
                     expect={"stored/bit-flip/detection": 1.0,
                             "stored/replace/detection": 1.0,
                             "stored/fixup-md5/detection": 0.0,
                             **{f"recomputed/{m}/detection": 0.0
                                for m in _DETECTION_MODES},
                             **{f"tpnr/{m}/{k}": 1.0
                                for m in _DETECTION_MODES
                                for k in ("detection", "attribution")}}),
        ScenarioSpec("F6", "Fig. 6 — TPNR work flows",
                     "experiment_fig6", "exp/f6",
                     expect={"normal_steps": 2, "normal_offline_ttp": True,
                             "abort_status": "aborted", "abort_offline_ttp": True,
                             "resolve_status": "resolved",
                             "resolve_inline_ttp": True,
                             "dispute_verdict": "provider-at-fault"}),
        ScenarioSpec("S3", "§3 — bridging schemes (TAC x SKS)",
                     "experiment_bridging", "exp/s3",
                     expect={"plain/tamper_verdict": "undetected",
                             **{f"{s}/tamper_verdict": "provider-at-fault"
                                for s in _BRIDGED_SCHEMES},
                             **{f"{s}/blackmail_verdict": "claim-rejected"
                                for s in _BRIDGED_SCHEMES}}),
        ScenarioSpec("S4", "§4.4 — TPNR vs traditional NR",
                     "experiment_step_counts", "exp/s4",
                     expect={"tpnr_always_fewer_steps": True,
                             "tpnr_always_faster": True,
                             **{f"{n}/tpnr_steps": 2 for n in _S4_PAYLOADS},
                             **{f"{n}/zg_steps": 5 for n in _S4_PAYLOADS}}),
        ScenarioSpec("S5", "§5 — attack robustness matrix",
                     "experiment_attacks", "exp/s5",
                     expect=_all_true("tpnr_defense_holds", "weakened_all_fall")),
        ScenarioSpec("S6", "§6 — protocol vs shipping time",
                     "experiment_shipping", "exp/s6",
                     expect=_all_true("protocol_is_trivial",
                                      "protocol_time_positive")),
        ScenarioSpec("W1", "extension — multi-client scalability",
                     "experiment_scalability", "exp/w1",
                     expect={"linear_messages": True,
                             **{f"{n}/success_rate": 1.0 for n in _W1_CLIENTS},
                             **{f"{n}/terminated": True for n in _W1_CLIENTS}}),
        ScenarioSpec("R1", "extension — loss resilience",
                     "experiment_resilience", "exp/r1",
                     expect=_all_true("all_terminated", "lossless_perfect",
                                      "monotone_pressure")),
        ScenarioSpec("A1", "ablation — evidence encryption",
                     "experiment_evidence_ablation", "exp/a1",
                     expect={"encrypted evidence/exposed": False,
                             "plain evidence/exposed": True,
                             "encryption_costs_bytes": True}),
        ScenarioSpec("FC1", "extension — fault-injection campaign",
                     "experiment_fault_campaign", "exp/fc1",
                     workload={"n_plans": 50},
                     expect={"all_settled": True, "hung_sessions": 0,
                             "violations": 0, "plans": 50}),
        ScenarioSpec("CR1", "extension — amnesia-crash recovery campaign",
                     "experiment_crash_recovery", "exp/cr1",
                     workload={"n_plans": 100},
                     expect={"all_settled": True, "hung_sessions": 0,
                             "violations": 0, "no_evidence_lost": True,
                             "plans": 100, "every_plan_crashed": True,
                             "every_crash_recovered": True}),
        ScenarioSpec("OB1", "extension — observability span trees + metrics",
                     "experiment_observability", "exp/ob1",
                     expect=_all_true("all_trees_complete", "metrics_nonempty",
                                      "crypto_observed", "prometheus_nonempty",
                                      "crash-resume/recovery_traced",
                                      "disabled_path_records_nothing",
                                      "observed_pool_keeps_no_spans")),
        ScenarioSpec("OB2", "extension — forensic timelines + consistency audit",
                     "experiment_forensics", "exp/ob2",
                     workload={"n_plans": 100},
                     expect={"all_attributed": True, "no_false_positives": True,
                             "verdicts_agree": True, "campaign/unattributed": 0,
                             "campaign/noop_findings": 0, "campaign/hung": 0,
                             "forensics_off_builds_no_auditor": True}),
        ScenarioSpec("OB3", "extension — SLO error budgets + burn-rate alerting",
                     "experiment_slo", "exp/ob3",
                     workload={"n_plans": 24},
                     expect={**_all_true("clean_run_silent",
                                         "storms_fire_burn_alerts",
                                         "sketch_merge_exact",
                                         "sketch_merge_within_bound"),
                             "clean/hung": 0, "blackout/hung": 0,
                             "delay/hung": 0}),
        ScenarioSpec("TP1", "extension — multi-tenant throughput engine",
                     "experiment_throughput", "exp/tp1",
                     # Keys are paid per identity (8 tenants + provider +
                     # TTP), never per transaction, and never twice.
                     expect={**_all_true("all_sessions_completed_and_verified",
                                         "ttp_untouched",
                                         "verify_cache_hits_positive",
                                         "same_seed_signature_identical",
                                         "cache_toggle_signature_identical"),
                             "cold_run_keygens": 10, "warm_run_keygens": 0}),
        ScenarioSpec("TP2", "extension — sharded engine + Merkle-batched evidence",
                     "experiment_sharded_throughput", "exp/tp2",
                     # RSA private-key operations: classic pays 112
                     # signatures + 32 KEM unwraps for 16 sessions; a
                     # batched shard world signs once per sealed batch.
                     # Certificates are provisioning: the directory
                     # issued them before the counted runs.
                     expect={**_all_true("all_sessions_completed_and_verified",
                                         "ttp_untouched",
                                         "shard_signature_invariant_1_2_4_8",
                                         "lossy/shard_signature_invariant_1_2_4_8",
                                         "batch_size_signature_invariant",
                                         "batched_evidence_settled_every_item",
                                         "batched_wire_bytes_below_classic"),
                             "classic/rsa_private_ops": 144,
                             "1/rsa_private_ops": 18, "2/rsa_private_ops": 19,
                             "4/rsa_private_ops": 20, "8/rsa_private_ops": 24}),
        ScenarioSpec("OB4", "extension — deterministic profiler + critical path",
                     "experiment_profiler", "exp/ob4",
                     # HMAC placement of 8 tenants over 4 shards leaves
                     # one shard empty; the other three hold 3/3/2.
                     expect={**_all_true("profile_artifacts_shard_invariant_1_2_4_8",
                                         "profile_artifacts_repeatable",
                                         "signature_unchanged_by_profiling",
                                         "critical_path_reconciles",
                                         "critical_path_within_tree_total",
                                         "unprofiled_run_records_no_regions"),
                             "shard_utilization/shards": 3,
                             "shard_utilization/session_skew": 1.125}),
        ScenarioSpec("RP1", "extension — replicated-store divergence campaign",
                     "experiment_replication", "exp/rp1",
                     workload={"n_plans": 60},
                     expect={"all_faults_masked_or_detected": True,
                             "zero_false_positives": True,
                             "faults_injected": True, "silent_faults": 0,
                             "violations": 0, "clean_plan_findings": 0}),
        ScenarioSpec("RP2", "extension — migration evidence continuity",
                     "experiment_migration", "exp/rp2",
                     # Bytes hashed per uploaded byte, by party: a new
                     # re-hash of a payload shows here as a broken fact.
                     expect={**_all_true("evidence_chain_survives_migration",
                                         "clean/chain_verified",
                                         "tampered/provider_at_fault"),
                             "hashed_bytes_per_user_byte/client": 2.0,
                             "hashed_bytes_per_user_byte/provider": 5.542,
                             "hashed_bytes_per_user_byte/replicas": 5.042}),
    ]


def build_default_registry() -> ScenarioRegistry:
    registry = ScenarioRegistry()
    for spec in _default_specs():
        registry.register(spec)
    return registry


DEFAULT_REGISTRY = build_default_registry()
#: The short convenience alias used throughout benches and the CLI.
SCENARIOS = DEFAULT_REGISTRY
