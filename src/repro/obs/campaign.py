"""Per-fault-class telemetry for FC1/CR1 campaign reports.

A :class:`~repro.net.faults.CampaignReport` is a flat per-plan table;
this module folds it by *fault class* — the shape of the injected
fault, derived from the plan itself — so a campaign summary can answer
"how do drops behave vs. amnesia crashes?" directly:

* per-class plan counts and terminal-status mix,
* retry (retransmission) counts,
* escalation rates (fraction of sessions that needed the TTP),
* WAL replay lengths across recoveries,
* sim-clock latency sketches per class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .anomaly import AnomalyMonitor, RateShiftDetector
from .metrics import MetricsRegistry
from .sketch import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover
    from ..net.faults import CampaignReport, FaultPlan

__all__ = [
    "fault_class",
    "class_breakdown",
    "record_campaign_metrics",
    "attach_campaign_detectors",
]


def fault_class(plan: "FaultPlan") -> str:
    """Classify a plan by the shape of what it injects.

    Replica-scoped faults dominate (the fault mode's value, e.g.
    ``replica-divergence``; several distinct modes in one plan fold to
    ``replica-compound``).  Crash windows come next (``amnesia`` /
    ``crash``); otherwise plans are ``compound`` (several rules), the
    single rule's action name (``drop``, ``duplicate``, ``delay``,
    ``corrupt``, ``reorder``), or ``none`` for the no-op plan.
    """
    replica_faults = getattr(plan, "replica_faults", ())
    if replica_faults:
        modes = sorted({rf.mode.value for rf in replica_faults})
        return modes[0] if len(modes) == 1 else "replica-compound"
    if plan.crashes:
        crash = "amnesia" if any(w.amnesia for w in plan.crashes) else "crash"
        return f"{crash}+rules" if plan.rules else crash
    if len(plan.rules) > 1:
        return "compound"
    if plan.rules:
        return plan.rules[0].action.value
    return "none"


def class_breakdown(report: "CampaignReport") -> list[dict]:
    """Fold a campaign report into one row per fault class.

    Rows are sorted by class name; each carries plan/violation counts,
    the status mix, retry and escalation aggregates, WAL replay totals,
    and a sim-latency sketch of the per-plan elapsed times.
    """
    groups: dict[str, list] = {}
    for outcome in report.outcomes:
        groups.setdefault(fault_class(outcome.plan), []).append(outcome)
    rows: list[dict] = []
    for name in sorted(groups):
        outcomes = groups[name]
        n = len(outcomes)
        statuses: dict[str, int] = {}
        for o in outcomes:
            statuses[o.status] = statuses.get(o.status, 0) + 1
        latency = QuantileSketch(f"campaign.latency.{name}")
        for o in outcomes:
            latency.observe(o.elapsed)
        escalated = sum(1 for o in outcomes if o.ttp_involved)
        rows.append({
            "fault_class": name,
            "plans": n,
            "statuses": dict(sorted(statuses.items())),
            "retries": sum(o.retransmits for o in outcomes),
            "retries_mean": sum(o.retransmits for o in outcomes) / n,
            "escalated": escalated,
            "escalation_rate": escalated / n,
            "recoveries": sum(o.recoveries for o in outcomes),
            "wal_replayed": sum(o.wal_replayed for o in outcomes),
            "violations": sum(len(o.violations) for o in outcomes),
            "elapsed_total": sum(o.elapsed for o in outcomes),
            "elapsed_mean": sum(o.elapsed for o in outcomes) / n,
            "latency": latency,
        })
    return rows


def attach_campaign_detectors(metrics: MetricsRegistry) -> AnomalyMonitor:
    """A campaign's own monitor, its rate-shift detectors subscribed to
    the live counters.

    The :class:`~repro.net.faults.CampaignRunner` mirrors each plan's
    outcome into ``campaign.live.*`` counters and polls the monitor
    once per plan, so one poll window is one plan — the detectors see
    retransmission storms and escalation bursts across the sliding
    last-N-plans window.  Session success and terminal latency are
    error-budget questions, answered by the standard campaign SLOs
    (:func:`~repro.obs.slo.standard_campaign_slos`, ``slo=True``).
    """
    retransmits = metrics.counter("campaign.live.retransmits")
    escalations = metrics.counter("campaign.live.escalations")
    monitor = AnomalyMonitor()
    monitor.add(RateShiftDetector(
        "retransmit-rate", lambda: retransmits.value,
        subject="campaign.live.retransmits",
        window=10, factor=4.0, min_events=4,
    ))
    monitor.add(RateShiftDetector(
        "escalation-rate", lambda: escalations.value,
        subject="campaign.live.escalations",
        window=10, factor=4.0, min_events=2,
    ))
    return monitor


def record_campaign_metrics(report: "CampaignReport", metrics: MetricsRegistry) -> None:
    """Mirror the per-class breakdown into a metrics registry."""
    for r in class_breakdown(report):
        cls = r["fault_class"]
        metrics.counter("campaign.plans", fault_class=cls).inc(r["plans"])
        metrics.counter("campaign.retries", fault_class=cls).inc(r["retries"])
        metrics.counter("campaign.escalations", fault_class=cls).inc(r["escalated"])
        metrics.counter("campaign.recoveries", fault_class=cls).inc(r["recoveries"])
        metrics.counter("campaign.wal_replayed", fault_class=cls).inc(r["wal_replayed"])
        metrics.counter("campaign.violations", fault_class=cls).inc(r["violations"])
    for outcome in report.outcomes:
        cls = fault_class(outcome.plan)
        metrics.histogram("campaign.latency_seconds", fault_class=cls).observe(outcome.elapsed)
