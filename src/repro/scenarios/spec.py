"""Declarative scenario specs and their content-addressed run keys.

A :class:`ScenarioSpec` is the complete, serializable description of
one experiment the repo can run: which runner, which root seed, which
workload knobs, how many repetitions, and which facts every run must
show.

The **run key** is the content address of a spec: a SHA-256 over the
*canonical* spec serialization, the seed-derivation scheme version, and
the repo code version.  Canonicalization guarantees two properties:

* **representation never matters** — dict key order is erased by
  sorted-key JSON, tuples and lists collapse to the same form, and a
  workload knob spelled out with its default value hashes identically
  to the same knob omitted (defaults come from the runner's own
  signature, so the spec cannot drift from the code);
* **semantics always matter** — changing the runner, the root seed,
  any effective knob value, the repetition count, the seed scheme, or
  the code version changes the run key.

Two fields are deliberately outside the hash: ``title`` (cosmetic)
and ``expect`` (a verdict on a run's output, not an input to it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..crypto.hashes import digest
from ..determinism import canon_float
from ..errors import ReproError
from .seeds import SEED_SCHEME, repetition_seed

__all__ = [
    "CANON_SCHEME",
    "ScenarioSpec",
    "canonical_spec",
    "canonical_json",
    "compute_run_key",
]

#: Version tag of the canonicalization itself, hashed into every run
#: key so a change in these rules can never collide with old keys.
CANON_SCHEME = "repro.scenarios.run_key/v2"


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered experiment, fully described.

    ``runner`` names a callable in :mod:`repro.analysis.experiments`
    (e.g. ``"experiment_fault_campaign"``); ``workload`` holds keyword
    knobs for it (everything except ``seed``, which the registry
    derives).  ``nondeterministic_meta`` lists meta keys excluded from
    the canonical result serialization (wall-clock telemetry and the
    like).  ``expect`` maps fact names to the values every run must
    report — the scenario's contract, checked by
    :meth:`~repro.scenarios.registry.RegisteredScenario.check`.
    """

    scenario_id: str
    title: str
    runner: str
    root_seed: str
    workload: Mapping[str, Any] = field(default_factory=dict)
    repetitions: int = 1
    nondeterministic_meta: tuple[str, ...] = ()
    expect: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scenario_id:
            raise ReproError("scenario_id must be non-empty")
        if not self.runner:
            raise ReproError(f"scenario {self.scenario_id!r} names no runner")
        if self.repetitions < 1:
            raise ReproError(
                f"scenario {self.scenario_id!r} needs >= 1 repetition")

    def seed(self, repetition: int = 0) -> bytes:
        """The derived (PT-002) seed for one repetition of this scenario."""
        return repetition_seed(self.root_seed, repetition)

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A derived spec (different seed, knobs, ...) — new run key."""
        return replace(self, **changes)


def _normalize(value: Any) -> Any:
    """Collapse equivalent representations before hashing.

    Tuples and lists become lists; bytes become latin-1 text (the
    repo-wide seed convention); mappings sort by key; floats go through
    :func:`repro.determinism.canon_float` — the one normalization point
    for every float that reaches a content hash, so a knob computed as
    ``0.1 + 0.2`` and one written ``0.3`` (or a ``-0.0``) spell the
    same run key.  Anything else must already be JSON-serializable —
    fail loudly otherwise, a run key over a lossy ``repr`` would not be
    content-addressed.
    """
    if isinstance(value, bool):
        # bool before int/float: True must stay True, not become 1.
        return value
    if isinstance(value, (tuple, list)):
        return [_normalize(v) for v in value]
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).decode("latin-1")
    if isinstance(value, Mapping):
        return {str(k): _normalize(v) for k, v in sorted(value.items())}
    if isinstance(value, float):
        return canon_float(value)
    if value is None or isinstance(value, (str, int)):
        return value
    raise ReproError(f"cannot canonicalize spec value of type {type(value).__name__}")


def canonical_spec(spec: ScenarioSpec,
                   defaults: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """The semantic content of *spec* as a plain dict.

    Workload knobs whose value equals the runner's own default (per
    *defaults*, normally introspected from its signature) are dropped,
    so explicit-default and omitted spell the same spec.
    """
    workload = {k: _normalize(v) for k, v in sorted(spec.workload.items())}
    for name, default in (defaults or {}).items():
        if name in workload and workload[name] == _normalize(default):
            del workload[name]
    return {
        "scenario_id": spec.scenario_id,
        "runner": spec.runner,
        "root_seed": spec.root_seed,
        "workload": workload,
        "repetitions": spec.repetitions,
        "nondeterministic_meta": sorted(spec.nondeterministic_meta),
    }


def canonical_json(payload: Any) -> str:
    """Sorted-key, tight-separator JSON — the only serialization hashed."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def compute_run_key(spec: ScenarioSpec,
                    defaults: Mapping[str, Any] | None = None,
                    version: str | None = None) -> str:
    """The content address of one (spec, seed scheme, code version)."""
    if version is None:
        from .. import __version__ as version
    blob = canonical_json({
        "canon_scheme": CANON_SCHEME,
        "seed_scheme": SEED_SCHEME,
        "code_version": version,
        "spec": canonical_spec(spec, defaults),
    })
    return digest("sha256", blob.encode()).hex()
