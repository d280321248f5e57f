"""OB4 — extension: deterministic profiler, critical path, and the
perf-regression sentinel.

Two jobs (the OB4 artifact itself comes from ``bench_scenarios.py``):

* prove the off-by-default promise — driving the engine with the NULL
  profiler seat must cost at most 3% over the fully-profiled run (the
  hooks are one attribute load plus one branch when disabled);
* land the gated OB4 perf point, with the profiled run's throughput and
  both spec-declared invariance results measured in the same stage
  context.  Promotion routes through the perf-regression sentinel, so
  this point (and every later one) is also checked against its own best
  prior before it can land.

The overhead measurement mirrors bench_observability.py: best-of-N
(disabled, enabled) wall-time pairs on the same warmed directory, then
the *disabled* min against the enabled min — disabled must never be the
expensive side by more than the bound.
"""

import time

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.core.protocol import make_deployment, run_session
from repro.engine import TenantDirectory, run_pool
from repro.net.channel import WAN
from repro.obs.profiler import critical_path, flamegraph_text, profile_jsonl
from repro.scenarios import SCENARIOS

OB4 = SCENARIOS.get("OB4")
TENANTS = 16
OVERHEAD_BOUND = 1.03


def _warm_directory(seed: bytes) -> TenantDirectory:
    directory = TenantDirectory(seed)
    directory.warm(["bob", "ttp", *[f"tenant-{i:04d}" for i in range(TENANTS)]])
    return directory


def _time_pool(profile: bool, seed: bytes, directory: TenantDirectory) -> float:
    started = time.perf_counter()
    run_pool(seed, TENANTS, directory=directory, profile=profile)
    return time.perf_counter() - started


def test_bench_profiler_disabled_overhead(emit, perf_trajectory):
    """NULL-profiler seat <= 3% of the profiled run, artifacts
    shard-invariant, critical path reconciling — all at the stage seed,
    then promoted as the gated OB4 point."""
    with OB4.stage_context("overhead") as seed:
        directory = _warm_directory(seed)
        _time_pool(False, seed + b"/warm", directory)  # warm caches
        samples = [
            (_time_pool(False, seed + b"/off", directory),
             _time_pool(True, seed + b"/on", directory))
            for _ in range(5)
        ]
        disabled = min(s[0] for s in samples)
        enabled = min(s[1] for s in samples)
        ratio = disabled / enabled

        # Invariance 1: profile artifacts byte-identical across shard
        # counts with per-message evidence.
        artifacts = {}
        profiled = {}
        for shards in (1, 2, 4, 8):
            result = run_pool(seed, TENANTS, directory=directory,
                              shards=shards, profile=True)
            artifacts[shards] = (flamegraph_text(result.profile),
                                 profile_jsonl(result.profile))
            profiled[shards] = result
        artifacts_invariant = len(set(artifacts.values())) == 1

        # Invariance 2: the critical path's self-times account for a
        # live session's measured elapsed (WAN channel: real sim extent).
        dep = make_deployment(seed=seed + b"/critical", observe=True,
                              channel=WAN)
        outcome = run_session(dep, b"profiled critical-path payload " * 8)
        path = critical_path(dep.obs.tracer, outcome.transaction_id)
        reconciles = path is not None and path.reconciles() and path.total > 0

        tx_per_sec = profiled[4].tx_per_sec
        rows = [
            ["disabled (NULL profiler seat)", f"{disabled:.4f}"],
            ["enabled (region profiler + sketches)", f"{enabled:.4f}"],
            ["disabled/enabled ratio", f"{ratio:.3f}"],
            ["artifacts shard-invariant (1/2/4/8)", artifacts_invariant],
            ["critical path reconciles", reconciles],
        ]
        result = ExperimentResult(
            experiment_id="OB4-overhead",
            title="Profiler disabled-path overhead on the session engine",
            headers=["measurement", f"value ({TENANTS} tenants)"],
            rows=rows,
            facts={
                "disabled_seconds": disabled,
                "enabled_seconds": enabled,
                "disabled_over_enabled": ratio,
                "within_bound": ratio <= OVERHEAD_BOUND,
                "profile_artifacts_shard_invariant_1_2_4_8": artifacts_invariant,
                "critical_path_reconciles": reconciles,
            },
            notes="Profiler hooks guard with one attribute load + one branch "
            "when the seat holds NULL_PROFILER; the disabled path must stay "
            "within 3% of the profiled run.  Artifacts are the deterministic "
            "surface only (call-weighted flamegraph, sim-field profile.jsonl).",
            meta=run_meta(seed),
        )
    emit(result, extra=f"disabled/enabled ratio: {ratio:.3f} "
         f"(bound {OVERHEAD_BOUND}); profiled 4-shard rate "
         f"{tx_per_sec:.2f} tx/s")
    perf_trajectory(OB4.perf_entry(
        "overhead",
        invariance={
            "profile_artifacts_shard_invariant_1_2_4_8": artifacts_invariant,
            "critical_path_reconciles": reconciles,
        },
        recorded_by="bench_profiler.py",
        disabled_over_enabled=round(ratio, 4),
        samples=[{
            "tenants": TENANTS,
            "shards": 4,
            "tx_per_sec": round(tx_per_sec, 2),
        }],
    ))
    assert artifacts_invariant, (
        "profile artifacts differ across shard counts at per-message evidence"
    )
    assert reconciles, "critical-path self-times do not sum to the elapsed"
    assert ratio <= OVERHEAD_BOUND, (
        f"disabled profiler cost {ratio:.3f}x the profiled path; "
        "the null-object guards are doing real work"
    )
