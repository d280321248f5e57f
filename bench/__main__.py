"""Command line: ``python3 -m bench``.

With ``--workload`` it measures that one workload in this process and
prints the metrics, then one JSON result line (the last line of
stdout).  Without it, it runs every workload in turn, each in a fresh
child process, prints every metric, and writes all raw values to
``--out``.  The exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from . import OUT_DIR, ROOT, SPEC_PATH, use_checkout_source

#: Pin native math libraries to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CHILD_TIMEOUT_S = 900


def _parser(default_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="how long the timed loop of each workload runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting the per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the full result record here")
    return parser


def _print_metrics(record: dict) -> None:
    for name, value in record["metrics"].items():
        print(f"{record['workload']:<20} {name:<48} {value:>14.6g} {record['units'][name]}")


def _summary(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    }


def _run_one(args, workloads) -> int:
    from .runner import measure

    record = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_metrics(record)
    for failure in record["failures"]:
        print(f"FAILED {record['workload']}: {failure}")
    print(json.dumps(_summary(record)))
    return 0 if record["correct"] else 1


def _run_suite(args, workloads) -> int:
    out = args.out or OUT_DIR / f"result-seed{args.seed}{'-trace' if args.trace else ''}.json"
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    records = {}
    status = 0
    for name in workloads:
        part = OUT_DIR / f"part-{name}-seed{args.seed}.json"
        part.unlink(missing_ok=True)
        command = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(part)]
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if not part.exists():
            sys.stderr.write(done.stdout + done.stderr)
            print(f"{name}: no result (exit {done.returncode})")
            status = 1
            continue
        record = json.loads(part.read_text(encoding="utf-8"))
        part.unlink()
        records[name] = record
        _print_metrics(record)
        samples = record.get("samples")
        if samples:
            print(f"{name:<20} samples: {samples['uploads']} uploads, "
                  f"{samples['downloads']} downloads, {samples['sim_sessions']} sim sessions")
        print(f"{name:<20} error_rate {record['failed'] / max(1, record['attempted']):.6g} "
              f"({record['failed']} of {record['attempted']} operations)")
        for failure in record["failures"]:
            print(f"FAILED {name}: {failure}")
        if done.returncode != 0 or not record["correct"]:
            status = 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "trace": bool(args.trace),
                               "workloads": records}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
        use_checkout_source()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot run here: {exc}", file=sys.stderr)
        return 2
    args = _parser(spec["run_seconds"]).parse_args(argv)
    from .workloads import WORKLOADS

    if args.workload is None:
        return _run_suite(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return _run_one(args, WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
