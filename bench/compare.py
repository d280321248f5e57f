"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage::

    python3 bench/compare.py --a A1.json A2.json A3.json --b B1.json B2.json B3.json

Each file is a result written by ``python3 -m bench --out`` (all
workloads) or ``python3 -m bench --workload <w> --out`` (one).  For
every (workload, end-to-end metric) the median and the quartile
distance (IQR) of each set are printed with one verdict for B against
A:

* ``worse`` / ``better`` — the medians differ by more than the bound,
  in the metric's bad / good direction;
* ``same`` — they differ by no more than the bound;
* ``unresolved`` — a set's IQR is wider than the bound, so the runs
  cannot tell (unless every B run beats every A run: ``better``).

When all files measured the same source tree, runs of one seed must
agree exactly on every round signature and every deterministic metric;
any difference is reported and fails the comparison.  The exit code is
1 on such a difference or any ``worse`` verdict, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

if __package__ in (None, ""):  # run as a script: make `bench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import SPEC_PATH
from bench.stats import iqr


def load_records(paths) -> list[dict]:
    """Every single-workload record in *paths* (suite files are split)."""
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        records.extend(data["workloads"].values() if "workloads" in data else [data])
    return records


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative change of B's median against A's, signed so
    that positive is worse)."""
    med_a, med_b = median(a), median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = change if better == "lower" else -change
    b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    spread = max(iqr(a) / abs(med_a) if med_a else 0.0,
                 iqr(b) / abs(med_b) if med_b else 0.0)
    if spread > bound:
        return ("better" if b_wins else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "same", worse_by


def determinism_errors(records: list[dict]) -> list[str]:
    """Same code + same (workload, seed) must reproduce exactly."""
    if len({r["context"]["source_digest"] for r in records}) != 1:
        return []
    errors = []
    groups: dict[tuple[str, int, bool], list[dict]] = {}
    for record in records:
        key = (record["workload"], record["seed"], record["trace"])
        groups.setdefault(key, []).append(record)
    for (workload, seed, _), group in sorted(groups.items()):
        first = group[0]
        for other in group[1:]:
            if other["signatures"] != first["signatures"]:
                errors.append(f"{workload} seed {seed}: round signatures differ")
            for name in first.get("deterministic", []):
                if other["metrics"][name] != first["metrics"][name]:
                    errors.append(f"{workload} seed {seed}: {name} "
                                  f"{first['metrics'][name]!r} != {other['metrics'][name]!r}")
    return errors


def compare(a_paths, b_paths, spec: dict) -> tuple[list[tuple], list[str]]:
    """(rows, determinism errors); one row per (workload, metric)."""
    a_records, b_records = load_records(a_paths), load_records(b_paths)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = [r for r in a_records if r["workload"] == workload and not r["trace"]]
        b_runs = [r for r in b_records if r["workload"] == workload and not r["trace"]]
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            outcome, worse_by = verdict(a, b, metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], median(a), iqr(a), median(b), iqr(b),
                         worse_by, metric["bound"], outcome))
    return rows, determinism_errors(a_records + b_records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--a", nargs="+", required=True, help="baseline result files")
    parser.add_argument("--b", nargs="+", required=True, help="candidate result files")
    parser.add_argument("--spec", type=Path, default=SPEC_PATH)
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    rows, errors = compare(args.a, args.b, spec)
    print(f"{'workload':<20} {'metric':<28} {'unit':<5} {'A median':>12} {'A IQR':>10} "
          f"{'B median':>12} {'B IQR':>10} {'worse by':>9} {'bound':>6}  verdict")
    for workload, name, unit, med_a, iqr_a, med_b, iqr_b, worse_by, bound, outcome in rows:
        print(f"{workload:<20} {name:<28} {unit:<5} {med_a:>12.6g} {iqr_a:>10.4g} "
              f"{med_b:>12.6g} {iqr_b:>10.4g} {worse_by:>+9.2%} {bound:>6.0%}  {outcome}")
    for error in errors:
        print(f"NOT REPRODUCED: {error}")
    worse = sum(1 for row in rows if row[-1] == "worse")
    print(f"{len(rows)} pairs: {worse} worse, "
          f"{sum(1 for row in rows if row[-1] == 'unresolved')} unresolved, "
          f"{len(errors)} reproduction errors")
    return 1 if worse or errors or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
