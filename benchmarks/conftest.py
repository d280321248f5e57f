"""Shared helpers for the benchmark harness.

``bench_scenarios.py`` runs every registered scenario's experiment
stage, checks it against the spec's ``expect`` contract, and writes the
rendered artifact to ``benchmarks/results/<id>.txt`` (so
``EXPERIMENTS.md`` can reference stable outputs) next to its canonical
``<id>.json``.  The other benches measure perf and overhead stages.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.report import render_table
from repro.scenarios import canonical_result_json
from repro.scenarios.gate import promote

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Render an ExperimentResult, save it (.txt for humans, canonical
    .json for machines), and echo it to stdout.  With the scenario's
    *spec*, the JSON drops the meta keys the spec declares
    nondeterministic, so an experiment-stage artifact regenerates
    byte-identically."""

    def _emit(result, spec=None, extra: str = "") -> str:
        text = render_table(result.headers, result.rows,
                            title=f"[{result.experiment_id}] {result.title}")
        if result.notes:
            text += f"\nNote: {result.notes}"
        if extra:
            text += "\n" + extra
        (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
        (results_dir / f"{result.experiment_id}.json").write_text(
            canonical_result_json(result, spec) + "\n")
        print("\n" + text)
        return text

    return _emit


@pytest.fixture
def perf_trajectory(results_dir):
    """Promote one performance-trajectory point into BENCH_PERF.json.

    Promotion is **gated** (``repro.scenarios.gate``): the entry's
    run_key must match the registered spec, its seed must be the
    PT-002 derivation for its stage, and every invariance check the
    spec declares must be recorded as passing — otherwise the fixture
    raises and nothing is written.  The file keeps one point per
    ``(experiment_id, repo_version)``; re-running a bench at the same
    version replaces its point, so the list reads as one point per
    version — the repo's perf history over releases.
    """

    def _record(entry: dict) -> pathlib.Path:
        return promote(results_dir / "BENCH_PERF.json", entry)

    return _record
