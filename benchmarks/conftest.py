"""Shared helpers for the benchmark harness.

``bench_scenarios.py`` runs every registered scenario's experiment
stage, checks it against the spec's ``expect`` contract, and writes the
rendered artifact to ``benchmarks/results/<id>.txt`` (so
``EXPERIMENTS.md`` can reference stable outputs) next to its canonical
``<id>.json``.  Wall clock is the repository benchmark's to measure
(``python3 -m bench``); the exceptions here are the crypto
micro-benchmarks and OB3's SLO cost bound (``bench_slo.py``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.report import render_table
from repro.scenarios import canonical_result_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Render an ExperimentResult, save it (.txt for humans, canonical
    .json for machines), and echo it to stdout.  Every field is a pure
    function of the seed, so an experiment-stage artifact regenerates
    byte-identically."""

    def _emit(result) -> str:
        text = render_table(result.headers, result.rows,
                            title=f"[{result.experiment_id}] {result.title}")
        if result.notes:
            text += f"\nNote: {result.notes}"
        (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
        (results_dir / f"{result.experiment_id}.json").write_text(
            canonical_result_json(result) + "\n")
        print("\n" + text)
        return text

    return _emit
