"""repro.scenarios — the scenario control plane.

Declarative experiment specs with content-addressed run identity and
fail-closed benchmark gating:

* :mod:`~repro.scenarios.spec` — :class:`ScenarioSpec`, canonical
  serialization, and the content-addressed ``run_key`` (spec + seed
  scheme + code version);
* :mod:`~repro.scenarios.seeds` — PT-002-style root/repetition/stage
  seed derivation;
* :mod:`~repro.scenarios.registry` — the registry that binds specs to
  runners, derives seeds, and stamps run identity into every result
  (``SCENARIOS`` is the default instance with all experiments);
* :mod:`~repro.scenarios.gate` — the promotion gate: a
  ``BENCH_PERF.json`` point is accepted only with a matching run_key,
  a correctly derived seed, and passing invariance checks — anything
  else raises :class:`PromotionError`;
* :mod:`~repro.scenarios.sentinel` — the perf-regression sentinel:
  before a gated point lands, its throughput series are compared
  against the best prior point of the same series and a drop beyond
  tolerance raises :class:`RegressionError` (fail-closed, like the
  gate).

CLI: ``python -m repro scenario list|describe|run|gate``.
"""

from .context import RunStamp, current_stamp, stamped
from .gate import (
    GATE_FLOOR_VERSION,
    PromotionError,
    audit_file,
    entry_class,
    promote,
    validate_entry,
)
from .registry import (
    DEFAULT_REGISTRY,
    SCENARIOS,
    RegisteredScenario,
    ScenarioRegistry,
    canonical_result_json,
    runner_defaults,
)
from .seeds import SEED_SCHEME, derive_seed, repetition_seed, seed_matches, stage_seed
from .sentinel import (
    DEFAULT_TOLERANCE,
    RegressionError,
    audit_trajectory,
    check_entry,
)
from .spec import CANON_SCHEME, ScenarioSpec, canonical_json, canonical_spec, compute_run_key

__all__ = [
    "RunStamp",
    "current_stamp",
    "stamped",
    "GATE_FLOOR_VERSION",
    "PromotionError",
    "audit_file",
    "entry_class",
    "promote",
    "validate_entry",
    "DEFAULT_REGISTRY",
    "SCENARIOS",
    "RegisteredScenario",
    "ScenarioRegistry",
    "canonical_result_json",
    "runner_defaults",
    "DEFAULT_TOLERANCE",
    "RegressionError",
    "audit_trajectory",
    "check_entry",
    "SEED_SCHEME",
    "derive_seed",
    "repetition_seed",
    "seed_matches",
    "stage_seed",
    "CANON_SCHEME",
    "ScenarioSpec",
    "canonical_json",
    "canonical_spec",
    "compute_run_key",
]
