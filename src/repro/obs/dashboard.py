"""The live campaign dashboard behind ``repro slo --watch``.

Pure rendering: the CLI (or any driver) assembles a
:class:`DashboardFrame` from the mid-run :class:`~repro.obs.slo.
SLOManager` statuses plus recent alerts and calls :func:`render_frame`
per refresh.  Nothing here reads a clock or owns state, so frames are
deterministic and unit-testable, and the same renderer serves both
the ANSI live view and plain captured output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .anomaly import Alert
from .slo import SLOStatus

__all__ = [
    "DashboardFrame",
    "budget_bar",
    "render_frame",
    "top_fault_classes",
]


def budget_bar(remaining: float, width: int = 24) -> str:
    """An error-budget bar: ``[######........] 42%`` (clamped 0..1)."""
    remaining = min(1.0, max(0.0, remaining))
    filled = round(remaining * width)
    return "[" + "#" * filled + "." * (width - filled) + f"] {remaining:4.0%}"


def top_fault_classes(outcomes, k: int = 3) -> list[tuple[str, int]]:
    """The *k* fault classes with the most bad sessions so far.

    *outcomes* are :class:`~repro.net.faults.CampaignOutcome`s; "bad"
    mirrors the session-success SLI (not completed/resolved, or hung).
    """
    from .campaign import fault_class  # lazy: campaign pulls in net.faults

    counts: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.hung or outcome.status not in ("completed", "resolved"):
            label = fault_class(outcome.plan)
            counts[label] = counts.get(label, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


@dataclass
class DashboardFrame:
    """Everything one refresh of the live view shows."""

    title: str
    now: float
    done: int
    total: int
    statuses: list[SLOStatus] = field(default_factory=list)
    alerts: list[Alert] = field(default_factory=list)
    offenders: list[tuple[str, int]] = field(default_factory=list)
    recent_alerts: int = 5


def render_frame(frame: DashboardFrame) -> str:
    """One frame as plain text (the CLI adds the ANSI refresh)."""
    pct = frame.done / frame.total if frame.total else 0.0
    lines = [
        f"{frame.title}  t={frame.now:.3f}s  "
        f"plans {frame.done}/{frame.total} ({pct:4.0%})",
        "",
    ]
    name_w = max([len(s.name) for s in frame.statuses] or [4])
    for s in frame.statuses:
        burns = " ".join(
            f"{label}={rate:5.2f}x"
            for label, rate in sorted(s.burn_rates.items()))
        alert_tag = f"  ALERTS={s.alerts}" if s.alerts else ""
        lines.append(
            f"  {s.name:<{name_w}}  {budget_bar(s.budget_remaining)}  "
            f"sli={s.sli:.4f}/{s.objective:.3g}  burn {burns}{alert_tag}")
    shown = frame.alerts[-frame.recent_alerts:]
    if shown:
        lines.append("")
        lines.append(f"  recent alerts ({len(frame.alerts)} total):")
        for alert in shown:
            lines.append(
                f"    {alert.time:9.3f}s  {alert.detector}  "
                f"burn={alert.value:.2f}x>= {alert.threshold:g}x  {alert.detail}")
    if frame.offenders:
        lines.append("")
        lines.append("  top offending fault classes:")
        for label, count in frame.offenders:
            lines.append(f"    {label:<24} {count} bad session(s)")
    return "\n".join(lines) + "\n"
