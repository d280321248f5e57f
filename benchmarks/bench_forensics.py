"""OB2 — extension: forensic reconstruction cost and the disabled bound.

Prices the forensics layer itself: per-transaction timeline
reconstruction + audit cost lands in ``results/BENCH_PERF.json``, and a
campaign run with forensics *off* must stay within 3% of one that never
knew the feature existed (reconstruction is strictly post-hoc: the hot
path only ever pays for the telemetry it already records).  The OB2
artifact itself comes from ``bench_scenarios.py``.

Both probes run under the OB2 scenario spec: the cost probe runs in
the spec's ``cost`` stage (PT-002 derived seed) and is promoted through
the fail-closed gate with the ``clean_reconstruction_zero_findings``
invariance the spec demands, and the overhead probe runs in the
``overhead`` stage.
"""

import time

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.core.protocol import make_deployment, run_session
from repro.net.faults import CampaignRunner, generate_plans
from repro.obs.forensics import ConsistencyAuditor
from repro.scenarios import SCENARIOS

OB2 = SCENARIOS.get("OB2")
SESSIONS = 10
CAMPAIGN_PLANS = 12
PAYLOAD = b"forensic bench payload " * 32


def test_bench_forensics_reconstruction_cost(emit, perf_trajectory):
    """Wall cost of reconstruct+audit per transaction, recorded as a
    perf-trajectory point.  The reconstruction reads live objects only,
    so the figure prices the forensic *query*, not the recording."""
    with OB2.stage_context("cost") as seed:
        deps = []
        for i in range(SESSIONS):
            dep = make_deployment(seed=seed + str(i).encode(), observe=True,
                                  durable=True)
            outcome = run_session(dep, PAYLOAD)
            deps.append((dep, outcome.transaction_id))
        # Warm one reconstruction (imports, allocator) before timing.
        ConsistencyAuditor.for_deployment(deps[0][0]).audit(deps[0][1])
        best = float("inf")
        zero_findings = True
        for _ in range(3):
            started = time.perf_counter()
            for dep, txn in deps:
                auditor = ConsistencyAuditor.for_deployment(dep)
                timeline = auditor.reconstructor.reconstruct(txn)
                findings = auditor.audit(txn, timeline)
                zero_findings = zero_findings and not findings
                assert not findings, f"clean session produced findings: {findings}"
                assert timeline.entries
            best = min(best, time.perf_counter() - started)
        per_txn_ms = best / SESSIONS * 1e3
        result = ExperimentResult(
            experiment_id="OB2-cost",
            title="Forensic reconstruction + audit cost per transaction",
            headers=["metric", "value"],
            rows=[
                ["sessions reconstructed", SESSIONS],
                ["best wall s (all sessions)", f"{best:.4f}"],
                ["ms per transaction", f"{per_txn_ms:.2f}"],
            ],
            facts={
                "sessions": SESSIONS,
                "best_seconds": best,
                "ms_per_transaction": per_txn_ms,
            },
            notes="Reconstruct + audit over a clean observed durable session "
            "(four surfaces joined, all invariants checked, zero findings).",
            meta=run_meta(seed),
        )
    emit(result)
    perf_trajectory(OB2.perf_entry(
        "cost",
        invariance={"clean_reconstruction_zero_findings": zero_findings},
        recorded_by="bench_forensics.py",
        sessions=SESSIONS,
        reconstruction_ms_per_transaction=round(per_txn_ms, 3),
    ))


def _time_campaign(seed: bytes, forensics: bool) -> float:
    """Wall seconds for one small observed campaign, forensics on/off."""
    plans = generate_plans(seed, CAMPAIGN_PLANS)
    runner = CampaignRunner(seed=seed, scenario="session", observe=True,
                            forensics=forensics)
    started = time.perf_counter()
    runner.run(plans)
    return time.perf_counter() - started


def test_bench_forensics_disabled_overhead(emit):
    """With ``forensics=False`` the campaign hot path must not pay for
    the feature: disabled-run time <= 1.03x the cheapest observed
    configuration.  (The auditor is constructed and consulted only when
    asked; off means zero reconstructions.)"""
    with OB2.stage_context("overhead") as seed:
        _time_campaign(seed, False)  # warm caches/allocator before timing
        samples = [(_time_campaign(seed, False), _time_campaign(seed, True))
                   for _ in range(5)]
        disabled = min(s[0] for s in samples)
        enabled = min(s[1] for s in samples)
        ratio = disabled / enabled
        result = ExperimentResult(
            experiment_id="OB2-overhead",
            title="Forensics disabled-path overhead on the campaign hot path",
            headers=["configuration", f"wall s ({CAMPAIGN_PLANS} plans)", "ms/plan"],
            rows=[
                ["forensics off", f"{disabled:.4f}",
                 f"{disabled / CAMPAIGN_PLANS * 1e3:.2f}"],
                ["forensics on (audit per plan)", f"{enabled:.4f}",
                 f"{enabled / CAMPAIGN_PLANS * 1e3:.2f}"],
                ["off/on ratio", f"{ratio:.3f}", "-"],
            ],
            facts={
                "disabled_seconds": disabled,
                "enabled_seconds": enabled,
                "disabled_over_enabled": ratio,
                "within_bound": ratio <= 1.03,
            },
            notes="Reconstruction is post-hoc and opt-in; a campaign that never "
            "asks for it must run at the plain observed-campaign speed.",
            meta=run_meta(seed),
        )
    emit(result)
    assert ratio <= 1.03, (
        f"forensics-off campaign cost {ratio:.3f}x the forensics-on path; "
        "the disabled path is doing forensic work"
    )
