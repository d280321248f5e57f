"""Declarative SLOs: error budgets and multi-window burn-rate alerts.

The metrics layer (PR 3) records what happened and the anomaly layer
(PR 5) flags statistical surprises; this module states *objectives* —
"99% of TPNR transactions reach a terminal verdict within 10 sim
seconds", "95% of replica forks are detected within 5 s" — and
accounts for them continuously:

* an :class:`SLOSpec` binds an objective to an **SLI**, a good/bad
  event classifier read from the live registry (counter ratios or
  sketch latency thresholds — no raw samples retained);
* an **error budget** (``1 - objective``) is burned by bad events;
  :class:`SLOStatus` reports consumption and remaining budget;
* alerting is the Google-SRE multi-window multi-burn-rate shape,
  built on the existing :class:`~repro.obs.anomaly.BurnRateDetector`:
  a *fast* window with a high burn threshold pages on cliffs, a
  *slow* window with a low threshold catches smoulder, both
  edge-triggered and polled on the caller's deterministic cadence.

Reports are stamped with the active :class:`~repro.scenarios.context.
RunStamp` and exported via JSONL / the summary table; the manager also
mirrors ``slo.*`` gauges into the registry, so the existing
Prometheus/JSONL exporters carry the SLO surface with no new hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .anomaly import Alert, AnomalyMonitor, BurnRateDetector, alerts_table
from .metrics import MetricsRegistry

__all__ = [
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "SLOSpec",
    "CounterRatioSLI",
    "SketchThresholdSLI",
    "SLOStatus",
    "SLOReport",
    "SLOManager",
    "standard_campaign_slos",
    "standard_engine_slos",
]


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate alerting window: *window* polls wide, firing at
    *threshold* times the sustainable burn."""

    label: str
    window: int
    threshold: float


# The classic two-window page/ticket pair, scaled to campaign-length
# runs (windows are poll counts, not hours): a 4-poll window burning
# 8x pages fast on cliffs; a 16-poll window burning 2x catches the
# slow leak that would quietly exhaust the budget.
DEFAULT_BURN_WINDOWS = (
    BurnWindow("fast", 4, 8.0),
    BurnWindow("slow", 16, 2.0),
)


class CounterRatioSLI:
    """Good/bad read from two counter series (cumulative)."""

    def __init__(self, metrics: MetricsRegistry, good: tuple[str, dict] | str,
                 bad: tuple[str, dict] | str) -> None:
        self.metrics = metrics
        self._good = good if isinstance(good, tuple) else (good, {})
        self._bad = bad if isinstance(bad, tuple) else (bad, {})

    def _read(self, which: tuple[str, dict]) -> float:
        name, labels = which
        return self.metrics.counter(name, **labels).value

    def good(self) -> float:
        return self._read(self._good)

    def bad(self) -> float:
        return self._read(self._bad)


class SketchThresholdSLI:
    """Good = sketch observations at or under *threshold* (within the
    sketch's relative-error bound)."""

    def __init__(self, metrics: MetricsRegistry, name: str, threshold: float,
                 **labels: str) -> None:
        self.metrics = metrics
        self.name = name
        self.threshold = threshold
        self.labels = labels

    def _sketch(self):
        return self.metrics.sketch(self.name, **self.labels)

    def good(self) -> float:
        return float(self._sketch().count_le(self.threshold))

    def bad(self) -> float:
        sketch = self._sketch()
        return float(sketch.count - sketch.count_le(self.threshold))


@dataclass(frozen=True)
class SLOSpec:
    """One declared objective over one SLI."""

    name: str
    objective: float
    sli: object  # CounterRatioSLI | SketchThresholdSLI
    description: str = ""
    burn_windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS
    min_events: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")


@dataclass
class SLOStatus:
    """One SLO's error-budget position at a point in sim time."""

    name: str
    objective: float
    description: str
    good: float
    bad: float
    sli: float
    budget_consumed: float
    budget_remaining: float
    burn_rates: dict[str, float]
    alerts: int

    @property
    def total(self) -> float:
        return self.good + self.bad

    def row(self) -> list:
        burns = " ".join(
            f"{label}={rate:.2f}" for label, rate in sorted(self.burn_rates.items()))
        return [
            self.name, f"{self.objective:.3g}",
            f"{int(self.good)}/{int(self.total)}" if self.total else "0/0",
            f"{self.sli:.4f}" if self.total else "-",
            f"{self.budget_remaining:.0%}", burns or "-", self.alerts,
        ]


@dataclass
class SLOReport:
    """The full SLO surface of one run, RunStamp-included."""

    at: float
    statuses: list[SLOStatus]
    alerts: list[Alert]
    meta: dict = field(default_factory=dict)

    def burn_alerts(self) -> list[Alert]:
        return [a for a in self.alerts if a.detector.startswith("slo-burn:")]

    def table(self, title: str = "SLO error budgets") -> str:
        from ..analysis.report import render_table  # lazy: obs stays leaf-importable

        return render_table(
            ["slo", "objective", "good/total", "sli", "budget left",
             "burn rates", "alerts"],
            [s.row() for s in self.statuses],
            title=title,
        )

    def alerts_table(self, title: str = "SLO alerts") -> str:
        return alerts_table(self.alerts, title=title)


class _Tracker:
    """One SLO's live state: its spec plus one burn detector per window."""

    def __init__(self, spec: SLOSpec, detectors: list[BurnRateDetector]) -> None:
        self.spec = spec
        self.detectors = detectors
        self.alerts = 0


class SLOManager:
    """Evaluates declared SLOs against a live registry.

    Owns a *private* :class:`AnomalyMonitor` (never the deployment's
    shared one — the campaign loop polls that on its own cadence and
    double-polling would shift every windowed detector).  Call
    :meth:`poll` on the driving loop's cadence; call :meth:`report`
    once at the end of the run.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self.monitor = AnomalyMonitor()
        self._trackers: list[_Tracker] = []

    def add(self, spec: SLOSpec) -> SLOSpec:
        if any(t.spec.name == spec.name for t in self._trackers):
            raise ValueError(f"SLO {spec.name!r} already declared")
        detectors = []
        for bw in spec.burn_windows:
            detectors.append(self.monitor.add(BurnRateDetector(
                f"slo-burn:{spec.name}:{bw.label}",
                good_reader=spec.sli.good,
                bad_reader=spec.sli.bad,
                subject=spec.name,
                slo=spec.objective,
                threshold=bw.threshold,
                window=bw.window,
                min_events=spec.min_events,
            )))
        self._trackers.append(_Tracker(spec, detectors))
        return spec

    def poll(self, now: float) -> list[Alert]:
        """Sample every burn detector once at sim time *now*; mirrors
        ``slo.*`` series into the registry so existing exporters carry
        them."""
        fresh = self.monitor.poll(now)
        for tracker in self._trackers:
            tracker.alerts = sum(d.fired for d in tracker.detectors)
        self._mirror()
        return fresh

    def _burn_rates(self, tracker: _Tracker) -> dict[str, float]:
        """Current burn per window, from each detector's own snapshots
        (the same computation the alerts fire on)."""
        return {bw.label: det.burn()[0]
                for bw, det in zip(tracker.spec.burn_windows, tracker.detectors)}

    def _status(self, tracker: _Tracker) -> SLOStatus:
        spec = tracker.spec
        good, bad = float(spec.sli.good()), float(spec.sli.bad())
        total = good + bad
        sli = good / total if total else 1.0
        budget = 1.0 - spec.objective
        consumed = (bad / (total * budget)) if total else 0.0
        return SLOStatus(
            name=spec.name,
            objective=spec.objective,
            description=spec.description,
            good=good,
            bad=bad,
            sli=sli,
            budget_consumed=consumed,
            budget_remaining=max(0.0, 1.0 - consumed),
            burn_rates=self._burn_rates(tracker),
            alerts=tracker.alerts,
        )

    def statuses(self) -> list[SLOStatus]:
        return [self._status(t) for t in self._trackers]

    def _mirror(self) -> None:
        m = self.metrics
        for tracker in self._trackers:
            status = self._status(tracker)
            m.gauge("slo.sli", slo=status.name).set(status.sli)
            m.gauge("slo.budget_remaining", slo=status.name).set(
                status.budget_remaining)
            for label, rate in status.burn_rates.items():
                m.gauge("slo.burn_rate", slo=status.name, window=label).set(rate)
            m.gauge("slo.alerts", slo=status.name).set(tracker.alerts)

    @property
    def alerts(self) -> list[Alert]:
        return self.monitor.alerts

    def report(self, now: float, **meta) -> SLOReport:
        """The end-of-run report at sim time *now*, stamped with the
        active RunStamp."""
        from ..scenarios.context import current_stamp  # lazy: avoid import cycle

        stamp = current_stamp()
        full_meta = dict(meta)
        full_meta["polls"] = self.monitor.polls
        if stamp is not None:
            full_meta.update(stamp.as_meta())
        return SLOReport(
            at=now,
            statuses=self.statuses(),
            alerts=list(self.monitor.alerts),
            meta=full_meta,
        )


# -- standard SLO sets --------------------------------------------------------
#
# One declarative bundle per wired subsystem; each binds to the
# instrument names that subsystem feeds.  Objectives are calibrated so
# clean seeded runs hold them with budget to spare while the fault
# storms of OB3 burn through them.


def standard_campaign_slos(manager: SLOManager) -> SLOManager:
    """SLOs for :class:`~repro.net.faults.CampaignRunner` runs."""
    m = manager.metrics
    manager.add(SLOSpec(
        "session-success", objective=0.9,
        sli=CounterRatioSLI(
            m, ("campaign.live.verdicts", {"outcome": "ok"}),
            ("campaign.live.verdicts", {"outcome": "bad"})),
        description="TPNR sessions reach a good terminal verdict"))
    manager.add(SLOSpec(
        "terminal-latency", objective=0.8,
        sli=SketchThresholdSLI(m, "campaign.live.latency", 10.0),
        description="terminal verdict within 10 sim-seconds"))
    manager.add(SLOSpec(
        "evidence-verified", objective=0.9,
        sli=CounterRatioSLI(
            m, ("campaign.live.evidence", {"outcome": "ok"}),
            ("campaign.live.evidence", {"outcome": "bad"})),
        description="end-to-end evidence verification succeeds"))
    return manager


def standard_engine_slos(manager: SLOManager) -> SLOManager:
    """SLOs for :class:`~repro.engine.pool.SessionPool` runs."""
    m = manager.metrics
    manager.add(SLOSpec(
        "session-success", objective=0.95,
        sli=CounterRatioSLI(
            m, ("engine.sessions_finished", {"outcome": "ok"}),
            ("engine.sessions_finished", {"outcome": "failed"})),
        description="tenant sessions complete and verify"))
    manager.add(SLOSpec(
        "session-latency", objective=0.9,
        sli=SketchThresholdSLI(m, "engine.session_latency", 5.0),
        description="tenant session finishes within 5 sim-seconds"))
    return manager
