"""Measure one workload: untraced end-to-end metrics or a traced run.

Untraced (``trace=False``): set-up ``setup_reps`` times (median is
``setup_s``), one untimed warm-up round, then timed rounds until both
``min_rounds`` rounds ran and ``seconds`` elapsed, all under
:class:`~bench.hostspeed.HostSpeed`, which converts every timed span to
nominal host speed.  Wall-clock metrics use every timed round; the
deterministic metrics use exactly the first ``min_rounds`` rounds, so
one seed always gives one value.

Traced (``trace=True``): set-up once, warm up, then :data:`TRACE_ROUNDS`
pairs of the same round run untraced and traced, without host-speed
probes (they would land in the self time of whatever op they
interrupt).  The pair's wall times give the tracing overhead; the
traced round's counters give the per-layer metrics, per transaction
(session) of the traced rounds.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import subprocess
from statistics import median
from time import perf_counter

from . import OUT_DIR, ROOT, SOURCE
from .hostspeed import PROBE_NOMINAL_S, HostSpeed
from .stats import quantile
from .tracing import LAYERS, OPS, Tracer
from .workloads import COUNT_KEYS

TRACE_ROUNDS = 2

#: End-to-end metrics (name -> unit), in BENCHMARK.json order.
END_TO_END = {
    "tx_per_s": "1/s",
    "upload_p50_ms": "ms",
    "upload_p95_ms": "ms",
    "download_p50_ms": "ms",
    "download_p95_ms": "ms",
    "sim_latency_p50_s": "s",
    "sim_latency_p95_s": "s",
    "wire_bytes_per_user_byte": "B/B",
    "stored_bytes_per_user_byte": "B/B",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Metrics that are a pure function of (code, workload, seed).
DETERMINISTIC = (
    "sim_latency_p50_s",
    "sim_latency_p95_s",
    "wire_bytes_per_user_byte",
    "stored_bytes_per_user_byte",
)

RATIOS = {
    "crypto.cache.hit_ratio": "ratio",
    "replication.hedged_read_ratio": "ratio",
    "durability.bytes_written_per_user_byte": "B/B",
    "durability.fsyncs_per_tx": "count/tx",
    "net.deliveries_per_send": "ratio",
    "core.retransmits_per_tx": "count/tx",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (name -> unit), in BENCHMARK.json order."""
    units = {f"{layer}.self_us_per_tx": "us/tx" for layer in LAYERS}
    units["unattributed.us_per_tx"] = "us/tx"
    units["trace.overhead_ratio"] = "ratio"
    for name, _ in OPS:
        units[f"{name}.calls_per_tx"] = "calls/tx"
        units[f"{name}.self_us_per_tx"] = "us/tx"
    units.update(RATIOS)
    return units


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def source_digest() -> str:
    """SHA-256 over the measured source tree: the code's identity even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(str(path.relative_to(SOURCE)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_context(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(timed: list[dict], rounds, min_rounds: int, setup_s) -> dict[str, float]:
    """End-to-end metric values from the timed rounds and their timings."""
    uploads = [ms for t in timed for ms in t["upload_ms"]]
    downloads = [ms for t in timed for ms in t["download_ms"]]
    fixed = rounds[:min_rounds]
    sim = [s for r in fixed for s in r.sim_latency_s]
    user = sum(r.user_bytes for r in fixed)
    return {
        "tx_per_s": median([r.completed / t["wall_s"] for r, t in zip(rounds, timed)]),
        "upload_p50_ms": quantile(uploads, 0.50),
        "upload_p95_ms": quantile(uploads, 0.95),
        "download_p50_ms": quantile(downloads, 0.50),
        "download_p95_ms": quantile(downloads, 0.95),
        "sim_latency_p50_s": quantile(sim, 0.50),
        "sim_latency_p95_s": quantile(sim, 0.95),
        "wire_bytes_per_user_byte": sum(r.wire_bytes for r in fixed) / user,
        "stored_bytes_per_user_byte": sum(r.stored_bytes for r in fixed) / user,
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _warm_up(workload, state, seed: int):
    """One untimed round of the workload's small copy."""
    small = workload.warmup()
    return small.run_round(state, small.inputs(seed, "warmup"))


def _untraced(workload, seed: int, seconds: float) -> dict:
    setups = []
    state = None
    with HostSpeed() as host:
        for _ in range(workload.setup_reps):
            gc.collect()
            started = perf_counter()
            state = workload.setup(seed)
            setups.append((started, perf_counter()))
        warmup = _warm_up(workload, state, seed)
        rounds = []
        loop_started = perf_counter()
        while len(rounds) < workload.min_rounds or perf_counter() - loop_started < seconds:
            inputs = workload.inputs(seed, len(rounds))
            gc.collect()
            rounds.append(workload.run_round(state, inputs))
    timed = [r.timings(host.seconds) for r in rounds]
    warmup_timed = warmup.timings(host.seconds)
    if workload.setup_reps:
        setup_s = [host.seconds(*span) for span in setups]
    else:
        setup_s = [t["setup_s"] for t in (warmup_timed, *timed)]
    checked = (warmup, *rounds)
    return {
        "metrics": end_to_end_metrics(timed, rounds, workload.min_rounds, setup_s),
        "units": END_TO_END,
        "deterministic": list(DETERMINISTIC),
        "attempted": sum(r.attempted for r in checked),
        "failures": [f for r in checked for f in r.failures],
        "signatures": [r.signature for r in rounds[:workload.min_rounds]],
        "setup_samples_s": setup_s,
        "rounds": [r.raw(t) for r, t in zip(rounds, timed)],
        "warmup": warmup.raw(warmup_timed),
        "host": {
            "probes": len(host.durations),
            "probe_median_s": median(host.durations),
            "probe_nominal_s": PROBE_NOMINAL_S,
        },
        "samples": {
            "uploads": sum(len(r.uploads) for r in rounds),
            "downloads": sum(len(r.downloads) for r in rounds),
            "sim_sessions": sum(len(r.sim_latency_s) for r in rounds[:workload.min_rounds]),
        },
    }


def _elapsed(start: float, end: float) -> float:
    return end - start


def _traced(workload, seed: int) -> dict:
    state = workload.setup(seed)
    warmup = _warm_up(workload, state, seed)
    tracer = Tracer()
    checked = [warmup]
    failures = []
    plain_wall = traced_wall = 0.0
    sessions = user_bytes = 0
    counts = dict.fromkeys(COUNT_KEYS, 0)
    spans: list = []
    pairs = []
    for index in range(TRACE_ROUNDS):
        inputs = workload.inputs(seed, index)
        gc.collect()
        plain = workload.run_round(state, inputs)
        tracer.spans = [] if index == 0 else None
        tracer.label = f"round-{index}"
        gc.collect()
        traced = workload.run_round(state, inputs, tracer=tracer)
        if index == 0:
            spans = tracer.spans
        tracer.spans = None
        checked += [plain, traced]
        if traced.signature != plain.signature:
            failures.append(f"round {index}: tracing changed the outputs")
        plain_wall += _elapsed(*plain.window)
        traced_wall += _elapsed(*traced.window)
        sessions += traced.sessions
        user_bytes += traced.user_bytes
        for key in COUNT_KEYS:
            counts[key] += traced.counts[key]
        pairs.append({"untraced": plain.raw(plain.timings(_elapsed)),
                      "traced": traced.raw(traced.timings(_elapsed))})
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(trace_path, spans)

    def per_tx_us(seconds: float) -> float:
        return seconds * 1e6 / sessions

    metrics = {f"{layer}.self_us_per_tx": per_tx_us(s)
               for layer, s in tracer.layer_seconds().items()}
    metrics["unattributed.us_per_tx"] = per_tx_us(traced_wall - tracer.traced_seconds)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    for name, calls, seconds in zip(tracer.names, tracer.calls, tracer.self_seconds):
        metrics[f"{name}.calls_per_tx"] = calls / sessions
        metrics[f"{name}.self_us_per_tx"] = per_tx_us(seconds)
    metrics.update({
        "crypto.cache.hit_ratio": _ratio(counts["cache_hits"], counts["cache_lookups"]),
        "replication.hedged_read_ratio": _ratio(counts["hedged_reads"], counts["replica_reads"]),
        "durability.bytes_written_per_user_byte": counts["wal_bytes"] / user_bytes,
        "durability.fsyncs_per_tx": counts["fsyncs"] / sessions,
        "net.deliveries_per_send": _ratio(counts["deliveries"], counts["sends"]),
        "core.retransmits_per_tx": counts["retransmits"] / sessions,
    })
    return {
        "metrics": metrics,
        "units": per_layer_units(),
        "attempted": sum(r.attempted for r in checked),
        "failures": failures + [f for r in checked for f in r.failures],
        "signatures": [p["traced"]["signature"] for p in pairs],
        "rounds": pairs,
        "warmup": warmup.raw(warmup.timings(_elapsed)),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(spans),
        "dropped_spans": tracer.dropped_spans,
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of *workload*: the full result record."""
    context = run_context(seed)
    body = _traced(workload, seed) if trace else _untraced(workload, seed, seconds)
    context["loadavg_after"] = list(os.getloadavg())
    failures = body.pop("failures")
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "context": context,
        "correct": not failures,
        "failed": len(failures),
        "failures": failures[:50],
        **body,
    }
