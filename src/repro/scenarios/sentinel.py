"""Perf-regression sentinel over the BENCH_PERF.json trajectory.

The promotion gate (:mod:`repro.scenarios.gate`) proves a new point is
*comparable* — right run key, right seed, invariance checks passed —
but says nothing about whether it is *worse*.  This module closes that
gap: before a gated point lands on the trajectory, every throughput
sample it carries is compared against the best prior sample of the
same series, and a drop beyond the tolerance **raises**
:class:`RegressionError` — fail-closed, no warn-and-append, exactly
like the gate itself.

A *series* is the unit of comparability: ``(experiment_id, stage,
sample coordinates)`` where the coordinates are the workload knobs a
sample records (``tenants``, ``shards``, ``batch_size``) — a TP2 point
at 8 shards is never compared against one at 2.  The ``classic``
comparison block throughput benchmarks carry is its own series.

Only ``gated`` entries participate (see
:func:`~repro.scenarios.gate.entry_class`): legacy pre-gate numbers
were measured before run identity existed, so a drop across the
legacy/gated boundary (TP1's 38.69 → 28.08 is real history) is a
measurement-regime change, not a regression.  "Prior" means *strictly
lower repo version*: re-benching the same version replaces its point
and must not race itself.

Wall-clock throughput is noisy, so the default tolerance is generous
(15%); tighten it per call if a benchmark is known stable.  The
sentinel never mutates the file — :func:`check_entry` inspects, the
gate's ``promote()`` calls it before writing.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping

from ..errors import ReproError
from .gate import _parse_version, entry_class

__all__ = [
    "DEFAULT_TOLERANCE",
    "RegressionError",
    "extract_series",
    "best_prior",
    "check_entry",
    "audit_trajectory",
]

#: Maximum accepted fractional tx/s drop vs the best prior point of the
#: same series (0.15 = a new point may be at most 15% slower).
DEFAULT_TOLERANCE = 0.15


class RegressionError(ReproError):
    """A new trajectory point regressed beyond tolerance; reject it."""


def _coords(sample: Mapping[str, Any]) -> tuple:
    """The workload coordinates that make two samples comparable."""
    return tuple(
        (key, sample[key])
        for key in ("tenants", "shards", "batch_size")
        if key in sample
    )


def extract_series(entry: Mapping[str, Any]) -> dict[tuple, float]:
    """Every throughput series one trajectory entry carries.

    Keys are ``(experiment_id, stage, kind, coords)`` tuples; values
    are the recorded ``tx_per_sec``.  Entries with no throughput
    samples (cost/latency benchmarks) yield an empty dict — the
    sentinel has nothing to say about them.
    """
    experiment_id = str(entry.get("experiment_id", ""))
    stage = str(entry.get("stage", "experiment"))
    series: dict[tuple, float] = {}
    samples = entry.get("samples")
    if isinstance(samples, list):
        for sample in samples:
            if not isinstance(sample, Mapping) or "tx_per_sec" not in sample:
                continue
            key = (experiment_id, stage, "sample", _coords(sample))
            series[key] = float(sample["tx_per_sec"])
    for block in ("classic", "baseline"):
        comparison = entry.get(block)
        if isinstance(comparison, Mapping) and "tx_per_sec" in comparison:
            key = (experiment_id, stage, block, _coords(comparison))
            series[key] = float(comparison["tx_per_sec"])
    return series


def best_prior(
    series_key: tuple,
    prior_entries: list[Mapping[str, Any]],
    version: tuple[int, ...],
) -> float | None:
    """The best (max) tx/s recorded for *series_key* at any strictly
    lower repo version, over gated entries only; None if no history."""
    best: float | None = None
    for entry in prior_entries:
        if entry_class(entry) != "gated":
            continue
        if _parse_version(entry.get("repo_version", "0")) >= version:
            continue
        value = extract_series(entry).get(series_key)
        if value is not None and (best is None or value > best):
            best = value
    return best


def check_entry(
    entry: Mapping[str, Any],
    prior_entries: list[Mapping[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[dict[str, Any]]:
    """Compare every series of *entry* against its best prior point.

    Returns one report row per series (``status`` ``"ok"``,
    ``"no-history"``, or — never returned, raised — a regression).
    Raises :class:`RegressionError` on the first series whose tx/s
    dropped more than *tolerance* vs the best strictly-prior point.
    Legacy entries are exempt by construction (they can never be newly
    added; see the gate).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    if entry_class(entry) != "gated":
        return [{"status": "legacy-exempt",
                 "experiment_id": entry.get("experiment_id")}]
    version = _parse_version(entry.get("repo_version", "0"))
    reports = []
    for series_key, value in sorted(extract_series(entry).items()):
        prior = best_prior(series_key, prior_entries, version)
        if prior is None:
            reports.append({"series": series_key, "status": "no-history",
                            "tx_per_sec": value})
            continue
        floor = prior * (1.0 - tolerance)
        if value < floor:
            drop = 1.0 - value / prior
            raise RegressionError(
                f"{series_key[0]} stage {series_key[1]!r} "
                f"{dict(series_key[3])}: {value:g} tx/s is {drop:.1%} below "
                f"the best prior point ({prior:g} tx/s at a lower version); "
                f"tolerance is {tolerance:.0%} — fix the regression or "
                "re-measure before promoting")
        reports.append({"series": series_key, "status": "ok",
                        "tx_per_sec": value, "best_prior": prior,
                        "floor": round(floor, 6)})
    return reports


def audit_trajectory(
    path: pathlib.Path | str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[dict[str, Any]]:
    """Replay the sentinel over a whole trajectory file, in version
    order: each gated entry is checked against everything that precedes
    it, exactly as if the points had been promoted chronologically.

    The committed ``benchmarks/results/BENCH_PERF.json`` must pass this
    (``repro scenario gate`` replays it at the default tolerance, as do
    the tier-1 tests); a hand-edited degraded point fails the build
    here rather than confusing a later reader.
    """
    path = pathlib.Path(path)
    entries = json.loads(path.read_text())
    if not isinstance(entries, list):
        raise RegressionError(f"{path}: trajectory file is not a JSON list")
    ordered = sorted(
        entries,
        key=lambda e: (_parse_version(e.get("repo_version", "0")),
                       str(e.get("experiment_id"))),
    )
    reports = []
    for index, entry in enumerate(ordered):
        reports.extend(check_entry(entry, ordered[:index], tolerance))
    return reports
