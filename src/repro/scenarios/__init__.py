"""repro.scenarios — the scenario control plane.

Declarative experiment specs with content-addressed run identity and
one ``expect`` contract per scenario:

* :mod:`~repro.scenarios.spec` — :class:`ScenarioSpec`, canonical
  serialization, and the content-addressed ``run_key`` (spec + seed
  scheme + code version);
* :mod:`~repro.scenarios.seeds` — PT-002-style root/repetition seed
  derivation;
* :mod:`~repro.scenarios.registry` — the registry that binds specs to
  runners, derives seeds, stamps run identity into every result, and
  checks each result against its spec's ``expect`` (``SCENARIOS`` is
  the default instance with all experiments).

Wall-clock speed is not asserted here: the repository benchmark
(``python3 -m bench``) measures it.

CLI: ``python -m repro scenario list|describe|run``.
"""

from .context import RunStamp, current_stamp, stamped
from .registry import (
    DEFAULT_REGISTRY,
    SCENARIOS,
    RegisteredScenario,
    ScenarioRegistry,
    canonical_result_json,
    runner_defaults,
)
from .seeds import SEED_SCHEME, derive_seed, repetition_seed
from .spec import CANON_SCHEME, ScenarioSpec, canonical_json, canonical_spec, compute_run_key

__all__ = [
    "RunStamp",
    "current_stamp",
    "stamped",
    "DEFAULT_REGISTRY",
    "SCENARIOS",
    "RegisteredScenario",
    "ScenarioRegistry",
    "canonical_result_json",
    "runner_defaults",
    "SEED_SCHEME",
    "derive_seed",
    "repetition_seed",
    "CANON_SCHEME",
    "ScenarioSpec",
    "canonical_json",
    "canonical_spec",
    "compute_run_key",
]
