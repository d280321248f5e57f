"""TP2 — extension: sharded engine with Merkle-batched evidence signatures.

The acceptance bar this bench enforces: at 100 tenants the sharded
engine with Merkle-batched evidence (one RSA signature per batch root,
per-item inclusion proofs settled fail-closed) must move transactions
at >= 5x the wall-clock rate of the classic engine — per-message
signatures, one shard — measured in the same run.  And the merged
``PoolResult.signature()`` must be **bit-identical** at 1, 2, 4, and 8
shards: sharding and batching change CPU time, never behavior.

The sweep runs in the TP2 spec's ``perf`` stage (PT-002 derived seed)
and is promoted through the fail-closed gate; the spec demands the
``shard_signature_invariant_1_2_4_8`` invariance, so a sweep whose
shard layout leaked into the deterministic result can never land on
the trajectory.  The slow-marked ``perf-10k`` stage drives the full
10,000-tenant population end to end.
"""

import pytest

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.engine import run_pool, run_sharded_throughput
from repro.scenarios import SCENARIOS

TP2 = SCENARIOS.get("TP2")
SPEEDUP_FLOOR = 5.0


def test_bench_sharded_throughput(benchmark, emit, perf_trajectory):
    with TP2.stage_context("perf") as seed:
        report = benchmark.pedantic(
            lambda: run_sharded_throughput(seed=seed, n_tenants=100,
                                           shard_counts=(1, 2, 4, 8),
                                           batch_size=64),
            rounds=1, iterations=1,
        )
        for sample in report.samples:
            assert sample.completed == sample.transactions == sample.verified
            assert sample.batches_sealed > 0, "batched run sealed no batches"
        invariant = report.signatures_identical
        assert invariant, (
            "merged signature differs across shard counts: "
            f"{sorted({s.signature for s in report.samples})}"
        )
        best = max(report.speedup_at(s.shards) for s in report.samples)
        assert best >= SPEEDUP_FLOOR, (
            f"batched+sharded best {best:.2f}x vs classic "
            f"{report.classic.tx_per_sec:.1f} tx/s < {SPEEDUP_FLOOR}x"
        )
        # Sharded-vs-unsharded covers the merge; batching must also be
        # invariant on its own axis (different batch size, same result).
        sig_b64 = report.sample_at(1).signature
        sig_b8 = run_pool(seed, 100, shards=1, batch_size=8).signature()
        assert sig_b64 == sig_b8

        result = ExperimentResult(
            experiment_id="TP2-perf",
            title="Extension — sharded engine + Merkle-batched evidence sweep",
            headers=["shards", "batch", "tenants", "completed", "wall s",
                     "tx/sec", "p50 (sim s)", "p99 (sim s)", "batches",
                     "signature"],
            rows=[s.row() for s in report.samples],
            facts={
                "classic_tx_per_sec": round(report.classic.tx_per_sec, 2),
                "best_speedup_vs_classic": round(best, 2),
                "speedup_floor_met": best >= SPEEDUP_FLOOR,
                "shard_signature_invariant_1_2_4_8": invariant,
                "batch_size_signature_invariant": sig_b64 == sig_b8,
            },
            notes="tx/sec is wall-clock; shards are deterministic HMAC "
            "partitions of the tenant population merged back into one "
            "PoolResult.  Classic = per-message RSA evidence signatures, "
            "one shard, same warmed directory, same run.",
            meta=run_meta(seed),
        )
    emit(result, extra=f"best speedup vs classic: {best:.2f}x "
         f"(classic {report.classic.tx_per_sec:.2f} tx/s)")
    perf_trajectory(TP2.perf_entry(
        "perf",
        invariance={"shard_signature_invariant_1_2_4_8": invariant},
        recorded_by="bench_sharded_throughput.py",
        classic={
            "tenants": report.classic.tenants,
            "tx_per_sec": round(report.classic.tx_per_sec, 2),
        },
        samples=[
            {
                "shards": s.shards,
                "batch_size": s.batch_size,
                "tenants": s.tenants,
                "tx_per_sec": round(s.tx_per_sec, 2),
                "batches_sealed": s.batches_sealed,
                "signature": s.signature,
            }
            for s in report.samples
        ],
        best_speedup_vs_classic=round(best, 2),
    ))


@pytest.mark.slow
def test_bench_sharded_throughput_10k_tenants(perf_trajectory):
    """The 10,000-tenant sweep endpoint (keygen-heavy; opt in with -m slow).

    Provisioning 10k identities dominates the wall clock; the claim
    under test is that the engine, sharded merge, and fail-closed batch
    settlement hold at population scale, not the keygen rate.
    """
    with TP2.stage_context("perf-10k") as seed:
        result = run_pool(seed, 10_000, shards=8, batch_size=256)
        assert result.completed == len(result.sessions) == result.verified == 10_000
        assert result.ttp_stats["resolves_handled"] == 0
        batch = result.batch_stats or {}
        assert batch.get("failed", 0) == 0
        assert batch.get("resolved", 0) > 0
    perf_trajectory(TP2.perf_entry(
        "perf-10k",
        experiment_id="TP2-10k",
        recorded_by="bench_sharded_throughput.py",
        samples=[{
            "tenants": 10_000,
            "shards": 8,
            "batch_size": 256,
            "tx_per_sec": round(result.tx_per_sec, 2),
            "batches_sealed": int(batch.get("batches", 0)),
            "signature": result.signature(),
        }],
    ))
