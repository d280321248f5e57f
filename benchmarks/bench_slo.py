"""OB3 — the SLO layer's evaluation cost, the one wall-clock bound left.

A clean campaign with the SLO layer attached must cost at most 3% more
wall time than the identical campaign without it.  No counted fact
stands in for this bound: the SLO path does real work when it is on,
so only a telemetry-off twin in the repository benchmark could replace
it.  What OB3 asserts about behavior (silent clean runs, burn alerts
under storms, exact sketch merges) is its ``expect`` contract, checked
by ``bench_scenarios.py`` and the tier-1 suite.
"""

import time

from repro.net.faults import CampaignRunner, FaultPlan
from repro.scenarios import SCENARIOS

SEED = SCENARIOS.get("OB3").seed()
CLEAN_PLANS = 10
OVERHEAD_BUDGET = 1.03  # slo-on may cost at most 3% over slo-off


def _clean_campaign_seconds(slo: bool) -> float:
    plans = [FaultPlan(name=f"s{i:03d}-clean") for i in range(CLEAN_PLANS)]
    best = float("inf")
    for _ in range(3):
        runner = CampaignRunner(seed=SEED, slo=slo)
        started = time.perf_counter()
        runner.run(plans)
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_slo_cost():
    """Three SLOs, two burn windows each, polled after every plan."""
    base_s = _clean_campaign_seconds(slo=False)
    slo_s = _clean_campaign_seconds(slo=True)
    overhead = slo_s / base_s
    print(f"\nOB3 SLO cost: {slo_s:.4f}s on vs {base_s:.4f}s off "
          f"= {overhead:.3f}x (budget {OVERHEAD_BUDGET}x)")
    assert overhead <= OVERHEAD_BUDGET, (
        f"SLO evaluation overhead {overhead:.3f}x exceeds "
        f"{OVERHEAD_BUDGET}x budget ({slo_s:.4f}s vs {base_s:.4f}s)")
