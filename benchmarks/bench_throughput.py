"""TP1 — extension: multi-tenant throughput engine vs the sequential baseline.

The acceptance bar this bench enforces: at 100 tenants the engine
(shared world, amortized keys, crypto caches) must move transactions at
>= 2x the wall-clock rate of the uncached one-deployment-per-transaction
baseline, measured in the same run — and turning the caches on must not
change the engine's deterministic result signature.  The sweep lands in
``results/BENCH_PERF.json``, the repo's performance trajectory.

The sweep runs in the TP1 spec's ``perf`` stage (PT-002 derived seed)
and is promoted through the fail-closed gate; the spec demands the
``cache_toggle_signature_identical`` invariance, so a sweep whose
caches changed *behavior* (not just CPU time) can never land on the
trajectory.
"""

import pytest

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.engine import run_pool, run_throughput
from repro.scenarios import SCENARIOS

TP1 = SCENARIOS.get("TP1")
SPEEDUP_FLOOR = 2.0


def test_bench_throughput(benchmark, emit, perf_trajectory):
    with TP1.stage_context("perf") as seed:
        report = benchmark.pedantic(
            lambda: run_throughput(seed=seed, tenant_counts=(1, 10, 100),
                                   baseline_transactions=10),
            rounds=1, iterations=1,
        )
        for sample in report.samples:
            assert sample.completed == sample.transactions == sample.verified
        sample100 = report.sample_at(100)
        assert sample100.verify_cache_hits > 0, "verify cache never hit on the TP1 workload"
        speedup = report.speedup_at(100)
        assert speedup >= SPEEDUP_FLOOR, (
            f"engine {sample100.tx_per_sec:.1f} tx/s vs baseline "
            f"{report.baseline.tx_per_sec:.1f} tx/s = {speedup:.2f}x < {SPEEDUP_FLOOR}x"
        )
        # Cache transparency: the deterministic signature is identical with
        # the caches on or off (they change CPU time, never behavior).
        sig_on = run_pool(seed, 16).signature()
        sig_off = run_pool(seed, 16, use_caches=False).signature()
        assert sig_on == sig_off

        result = ExperimentResult(
            experiment_id="TP1-perf",
            title="Extension — engine throughput sweep vs sequential baseline",
            headers=["tenants", "transactions", "completed", "verified",
                     "wall s", "tx/sec", "p50 (sim s)", "p99 (sim s)",
                     "verify hit rate", "kem-wrap hit rate"],
            rows=[s.row() for s in report.samples],
            facts={
                "baseline_tx_per_sec": round(report.baseline.tx_per_sec, 2),
                "speedup_at_100": round(speedup, 2),
                "speedup_floor_met": speedup >= SPEEDUP_FLOOR,
                "verify_cache_hits_at_100": sample100.verify_cache_hits,
                "cache_toggle_signature_identical": sig_on == sig_off,
            },
            notes="tx/sec is wall-clock (the caches' target); latency percentiles "
            "are simulated seconds from the engine's latency sketch.  Baseline = "
            "one fresh uncached deployment per transaction (the pre-engine status "
            "quo, keygen included).",
            meta=run_meta(seed),
        )
    emit(result, extra=f"speedup at 100 tenants: {speedup:.2f}x "
         f"(baseline {report.baseline.tx_per_sec:.2f} tx/s)")
    perf_trajectory(TP1.perf_entry(
        "perf",
        invariance={"cache_toggle_signature_identical": sig_on == sig_off},
        recorded_by="bench_throughput.py",
        baseline={
            "transactions": report.baseline.transactions,
            "tx_per_sec": round(report.baseline.tx_per_sec, 2),
        },
        samples=[
            {
                "tenants": s.tenants,
                "tx_per_sec": round(s.tx_per_sec, 2),
                "p50_latency_sim_s": round(s.p50_latency, 6),
                "p99_latency_sim_s": round(s.p99_latency, 6),
                "verify_cache_hit_rate": round(s.verify_cache_hit_rate, 4),
                "kem_wrap_hit_rate": round(s.kem_wrap_hit_rate, 4),
                "signature": s.signature,
            }
            for s in report.samples
        ],
        speedup_at_100=round(speedup, 2),
    ))


@pytest.mark.slow
def test_bench_throughput_1000_tenants(perf_trajectory):
    """The full 1 -> 1000 sweep endpoint (keygen-heavy; opt in with -m slow)."""
    with TP1.stage_context("perf-1000") as seed:
        result = run_pool(seed, 1000)
        assert result.completed == len(result.sessions) == result.verified == 1000
        assert result.ttp_stats["resolves_handled"] == 0
        stats = result.cache_stats or {}
        assert stats.get("verify", {}).get("hits", 0) > 0
    perf_trajectory(TP1.perf_entry(
        "perf-1000",
        experiment_id="TP1-1000",
        recorded_by="bench_throughput.py",
        samples=[{
            "tenants": 1000,
            "tx_per_sec": round(result.tx_per_sec, 2),
            "p50_latency_sim_s": round(result.p50_latency, 6),
            "p99_latency_sim_s": round(result.p99_latency, 6),
            "signature": result.signature(),
        }],
    ))
