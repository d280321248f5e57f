"""OB3 — SLOs: alert determinism and evaluation cost.

Two jobs (the OB3 artifact itself comes from ``bench_scenarios.py``):
prove the stage's declared invariance at the stage seed — two same-seed storm runs produce
byte-identical alert streams and the per-shard sketches merge to the
global sketch exactly — and price SLO evaluation itself: a clean
campaign with the SLO layer attached must cost at most 3% more wall
time than the identical campaign without it.  The perf point is
promoted through the fail-closed gate with the
``sketch_merge_equivalent_and_alerts_deterministic`` invariance the
OB3 spec demands.
"""

import time

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.net.faults import CampaignRunner, FaultPlan, generate_storm_plans
from repro.obs.sketch import QuantileSketch
from repro.scenarios import SCENARIOS

OB3 = SCENARIOS.get("OB3")
STORM_PLANS = 8
CLEAN_PLANS = 10
SHARDS = 4
OVERHEAD_BUDGET = 1.03  # slo-on may cost at most 3% over slo-off


def _storm_run(seed: bytes):
    plans = generate_storm_plans(seed, STORM_PLANS, profile="mixed")
    runner = CampaignRunner(seed=seed, observe=True, slo=True)
    return runner.run(plans)


def _clean_campaign_seconds(seed: bytes, slo: bool) -> float:
    plans = [FaultPlan(name=f"s{i:03d}-clean") for i in range(CLEAN_PLANS)]
    best = float("inf")
    for _ in range(3):
        runner = CampaignRunner(seed=seed, observe=True, slo=slo)
        started = time.perf_counter()
        runner.run(plans)
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_slo_cost_and_determinism(emit, perf_trajectory):
    """The OB3 ``perf`` stage: SLO evaluation must be cheap and its
    alert stream a pure function of the seed."""
    with OB3.stage_context("perf") as seed:
        # Invariance, part 1: two same-seed storm runs emit identical
        # alert streams (Alert is a frozen dataclass; == is by value)
        # and identical outcome signatures.
        first = _storm_run(seed)
        second = _storm_run(seed)
        alerts_deterministic = (
            first.slo.alerts == second.slo.alerts
            and first.signature() == second.signature()
            and len(first.slo.burn_alerts()) >= 1
        )
        assert alerts_deterministic

        # Invariance, part 2: sharding the run's latencies and merging
        # the shard sketches reproduces the global sketch exactly.
        latencies = [o.elapsed for o in first.outcomes]
        global_sketch = QuantileSketch("lat")
        shards = [QuantileSketch("lat") for _ in range(SHARDS)]
        for i, value in enumerate(latencies):
            global_sketch.observe(value)
            shards[i % SHARDS].observe(value)
        merged = QuantileSketch.merged("lat", shards)
        merge_exact = (
            merged.buckets == global_sketch.buckets
            and merged.count == global_sketch.count
            and merged.min == global_sketch.min
            and merged.max == global_sketch.max
            and all(merged.quantile(q) == global_sketch.quantile(q)
                    for q in (0.5, 0.9, 0.99))
        )
        assert merge_exact
        invariance_holds = alerts_deterministic and merge_exact

        # Cost: the same clean campaign with and without the SLO layer
        # (three SLOs, two burn windows each, polled every plan).
        base_s = _clean_campaign_seconds(seed, slo=False)
        slo_s = _clean_campaign_seconds(seed, slo=True)
        overhead = slo_s / base_s
        assert overhead <= OVERHEAD_BUDGET, (
            f"SLO evaluation overhead {overhead:.3f}x exceeds "
            f"{OVERHEAD_BUDGET}x budget ({slo_s:.4f}s vs {base_s:.4f}s)")

        result = ExperimentResult(
            experiment_id="OB3-perf",
            title="SLO evaluation cost + alert determinism",
            headers=["measure", "value"],
            rows=[
                ["clean campaign, slo off (best wall s)", f"{base_s:.4f}"],
                ["clean campaign, slo on (best wall s)", f"{slo_s:.4f}"],
                ["overhead", f"{overhead:.3f}x (budget {OVERHEAD_BUDGET}x)"],
                ["storm alerts (same seed, twice)",
                 f"{len(first.slo.alerts)} == {len(second.slo.alerts)}, "
                 f"identical={alerts_deterministic}"],
                ["sketch merge ({} shards)".format(SHARDS),
                 f"exact={merge_exact}"],
            ],
            facts={
                "clean_plans": CLEAN_PLANS,
                "storm_plans": STORM_PLANS,
                "base_seconds": base_s,
                "slo_seconds": slo_s,
                "overhead_ratio": overhead,
                "alerts_deterministic": alerts_deterministic,
                "sketch_merge_exact": merge_exact,
            },
            notes="Overhead prices the full SLO surface on the clean path: "
            "three SLOs x two burn windows polled after every plan, plus the "
            "slo.* gauge mirror. Determinism re-runs the same mixed storm "
            "twice at the stage seed and compares alert streams by value.",
            meta=run_meta(seed),
        )
    emit(result)
    perf_trajectory(OB3.perf_entry(
        "perf",
        invariance={
            "sketch_merge_equivalent_and_alerts_deterministic":
                invariance_holds,
        },
        recorded_by="bench_slo.py",
        clean_plans=CLEAN_PLANS,
        overhead_ratio=round(overhead, 4),
        slo_ms_per_plan=round(slo_s / CLEAN_PLANS * 1e3, 3),
    ))
