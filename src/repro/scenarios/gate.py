"""Fail-closed eligibility gating for benchmark promotion.

``benchmarks/results/BENCH_PERF.json`` is the repo's performance
trajectory; a trajectory is only trustworthy if every point on it is
reproducible and provably comparable.  This module is the gatekeeper:
a point is *promoted* (written to the file) only when

1. its ``scenario`` is registered and its ``run_key`` equals the key
   recomputed from the registered spec at the point's recorded repo
   version — a knob, seed, or derivation change can never masquerade
   as a perf delta;
2. its ``seed`` equals the PT-002 derivation for its declared stage
   and repetition — a point cannot quietly run on a different stream;
3. every invariance check the spec declares for that stage is present
   and ``true`` — e.g. TP1 perf points must prove the crypto caches
   changed wall-clock only (cache on/off result signatures identical).

Anything else **raises** :class:`PromotionError`; there is no warn-and-
append path.  Points recorded before the gate existed (repo version <
1.1.0, no ``run_key``) are *legacy*: they stay on the trajectory,
:func:`migrate_file` stamps them ``"gate": "legacy-pre-gate"`` so their
provenance is explicit, and no new legacy point can ever be added.

:func:`audit_file` replays the whole gate over an existing trajectory
file — ``repro scenario gate`` and the tier-1 suite run it, so a
hand-edited or drifted point fails the build, not a later reader.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping

from ..errors import ReproError
from .registry import DEFAULT_REGISTRY, ScenarioRegistry
from .seeds import seed_matches

__all__ = [
    "PromotionError",
    "GATE_FLOOR_VERSION",
    "entry_class",
    "validate_entry",
    "promote",
    "audit_file",
    "migrate_file",
]


class PromotionError(ReproError):
    """A benchmark point failed eligibility; it must not be promoted."""


#: First repo version at which the gate exists.  Points recorded at or
#: after this version must carry a full, valid identity block.
GATE_FLOOR_VERSION = (1, 1, 0)


def _parse_version(text: Any) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split("."))
    except ValueError:
        return (0,)


def entry_class(entry: Mapping[str, Any]) -> str:
    """``"legacy"`` for pre-gate points, ``"gated"`` for everything else.

    Fail-closed: an entry missing its run_key is legacy *only* if its
    recorded version predates the gate — at any newer version the same
    omission classifies it gated, and validation will reject it.
    """
    version = entry.get("repo_version", entry.get("version", "0"))
    if "run_key" not in entry and _parse_version(version) < GATE_FLOOR_VERSION:
        return "legacy"
    return "gated"


def validate_entry(entry: Mapping[str, Any],
                   registry: ScenarioRegistry = DEFAULT_REGISTRY) -> dict[str, Any]:
    """Check one trajectory point; raise :class:`PromotionError` unless
    it is eligible.  Returns a report dict describing what was checked."""
    experiment_id = entry.get("experiment_id")
    if not experiment_id:
        raise PromotionError("trajectory point carries no experiment_id")
    if entry_class(entry) == "legacy":
        return {"experiment_id": experiment_id, "status": "legacy-pre-gate",
                "checked": []}

    scenario_id = entry.get("scenario", experiment_id)
    if scenario_id not in registry:
        raise PromotionError(
            f"{experiment_id}: scenario {scenario_id!r} is not registered; "
            "register a spec before promoting points for it")
    scenario = registry.get(scenario_id)
    version = entry.get("repo_version")
    if not version:
        raise PromotionError(f"{experiment_id}: gated point carries no repo_version")

    # 1. Content-addressed run identity.
    recorded_key = entry.get("run_key")
    expected_key = scenario.run_key(version=str(version))
    if recorded_key != expected_key:
        raise PromotionError(
            f"{experiment_id}: run_key mismatch — recorded "
            f"{str(recorded_key)[:16]}..., spec at version {version} derives "
            f"{expected_key[:16]}... (spec, seed scheme, or knobs changed "
            "without re-running the benchmark)")

    # 2. Seed derivation.
    stage = entry.get("stage", "experiment")
    if stage != "experiment" and stage not in scenario.spec.stages:
        raise PromotionError(
            f"{experiment_id}: stage {stage!r} is not declared by scenario "
            f"{scenario_id!r} (stages: {list(scenario.spec.stages) or 'none'})")
    repetition = entry.get("repetition", 0)
    if not isinstance(repetition, int) or repetition < 0:
        raise PromotionError(f"{experiment_id}: bad repetition {repetition!r}")
    seed = entry.get("seed")
    if not isinstance(seed, str) or not seed_matches(
            scenario.spec.root_seed, seed, stage, repetition):
        raise PromotionError(
            f"{experiment_id}: seed {str(seed)[:24]!r} is not the PT-002 "
            f"derivation of root {scenario.spec.root_seed!r} for stage "
            f"{stage!r} rep {repetition}")

    # 3. Invariance contract.
    required = scenario.spec.checks_for(stage)
    recorded = entry.get("invariance", {})
    if not isinstance(recorded, Mapping):
        raise PromotionError(f"{experiment_id}: invariance block is not a mapping")
    for check in required:
        if check not in recorded:
            raise PromotionError(
                f"{experiment_id}: invariance check {check!r} required by "
                f"stage {stage!r} was never recorded")
        if recorded[check] is not True:
            raise PromotionError(
                f"{experiment_id}: invariance check {check!r} failed "
                f"({recorded[check]!r}); the point is not comparable")

    return {
        "experiment_id": experiment_id,
        "status": "accepted",
        "scenario": scenario_id,
        "stage": stage,
        "repetition": repetition,
        "run_key": expected_key,
        "checked": ["run_key", "seed-derivation",
                    *(f"invariance:{c}" for c in required)],
    }


def _load(path: pathlib.Path) -> list[dict[str, Any]]:
    if not path.exists():
        return []
    entries = json.loads(path.read_text())
    if not isinstance(entries, list):
        raise PromotionError(f"{path}: trajectory file is not a JSON list")
    return entries


def _dump(path: pathlib.Path, entries: list[dict[str, Any]]) -> None:
    entries.sort(key=lambda e: (str(e.get("experiment_id")),
                                str(e.get("repo_version"))))
    path.write_text(json.dumps(entries, indent=2, sort_keys=True, default=repr) + "\n")


def promote(path: pathlib.Path, entry: dict[str, Any],
            registry: ScenarioRegistry = DEFAULT_REGISTRY,
            tolerance: float | None = None) -> pathlib.Path:
    """Validate *entry* (fail-closed) and write it to the trajectory.

    The file keeps one point per ``(experiment_id, repo_version)``:
    re-benching the same version replaces its point, so the list reads
    as the repo's perf history over releases.

    Eligibility is necessary but not sufficient: after the identity
    checks, the perf-regression sentinel compares every throughput
    series the entry carries against the best prior point on the
    existing trajectory and raises
    :class:`~repro.scenarios.sentinel.RegressionError` on a drop beyond
    *tolerance* (default :data:`~repro.scenarios.sentinel.
    DEFAULT_TOLERANCE`) — a regressed point never lands silently.
    """
    # Imported here: sentinel imports this module's helpers.
    from .sentinel import check_entry

    report = validate_entry(entry, registry)
    if report["status"] != "accepted":
        raise PromotionError(
            f"{entry.get('experiment_id')}: only gated points may be "
            "promoted; legacy entries are grandfathered in place, never added")
    path = pathlib.Path(path)
    existing = _load(path)
    if tolerance is None:
        check_entry(entry, existing)
    else:
        check_entry(entry, existing, tolerance)
    key = (entry.get("experiment_id"), entry.get("repo_version"))
    entries = [
        e for e in existing
        if (e.get("experiment_id"), e.get("repo_version")) != key
    ]
    stored = dict(entry)
    stored["gate"] = "accepted"
    entries.append(stored)
    _dump(path, entries)
    return path


def audit_file(path: pathlib.Path,
               registry: ScenarioRegistry = DEFAULT_REGISTRY,
               strict: bool = True) -> list[dict[str, Any]]:
    """Replay the gate over every point in a trajectory file.

    With ``strict`` (the default), the first ineligible point raises —
    this is the CI entry point.  With ``strict=False``, reports carry
    ``status: "rejected"`` rows instead, for interactive inspection.
    """
    reports = []
    for entry in _load(pathlib.Path(path)):
        try:
            reports.append(validate_entry(entry, registry))
        except PromotionError as exc:
            if strict:
                raise
            reports.append({"experiment_id": entry.get("experiment_id"),
                            "status": "rejected", "reason": str(exc)})
    return reports


def migrate_file(path: pathlib.Path,
                 registry: ScenarioRegistry = DEFAULT_REGISTRY) -> int:
    """Stamp legacy pre-gate points so their provenance is explicit.

    Every legacy entry gains ``"gate": "legacy-pre-gate"``; every gated
    entry is validated (fail-closed) and gains ``"gate": "accepted"``.
    Returns the number of entries stamped as legacy.  This is the
    migration path for trajectories recorded before the gate existed:
    old points remain comparable *as history*, clearly marked as never
    having passed eligibility.
    """
    path = pathlib.Path(path)
    entries = _load(path)
    legacy = 0
    for entry in entries:
        if entry_class(entry) == "legacy":
            entry["gate"] = "legacy-pre-gate"
            legacy += 1
        else:
            validate_entry(entry, registry)
            entry["gate"] = "accepted"
    _dump(path, entries)
    return legacy
