"""repro.obs — the cross-cutting observability layer.

One :class:`Observability` object per observed deployment is the
switch, on, plus two telemetry surfaces:

* ``obs.metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry`
  (counters, gauges, quantile sketches, export-only bucket
  histograms; sim-clock-stamped);
* ``obs.tracer`` — a :class:`~repro.obs.span.Tracer` recording
  parent-linked span trees per TPNR transaction (trace id = txn id,
  span events carry envelope ``msg_id`` for correlation with the
  wire-level :class:`~repro.net.trace.TraceRecorder`).

Crypto hooks (:func:`~repro.obs.instrument.observe_crypto`) scope
RSA/AEAD/Merkle call counting into a registry for one block.

Every number these surfaces report is a pure function of the seed: the
clock is the simulation's, and the package never reads a real one.
Wall-clock cost is measured only by the repository benchmark
(``python3 -m bench``; ``--trace 1`` gives per-op self time).

Everything hangs off the network: ``make_deployment(observe=True)``
seats a live Observability on ``Network.obs`` and every node reaches it
through ``self.obs``.  When observation is off, that seat holds
:data:`NULL_OBS`, which carries ``enabled = False`` and nothing else —
no registry, no tracer.  Instrumented code guards with::

    obs = self.obs
    if obs.enabled:
        obs.metrics.counter("...").inc()

so the disabled cost is one attribute load and one branch, the
disabled path records nothing (an OB1 ``expect`` fact), and an
unguarded call on an unobserved world raises ``AttributeError``
instead of recording into a stand-in.  Span work guards on the same
flag: observability is all on or all off.  A session pool world is
never observed — it keeps only its own ``engine.session_latency``
sketch and, when profiled, the drive phase's crypto counts — so its
parties build no metric, span, root lookup or event name (also an OB1
fact).

Exporters (:mod:`repro.obs.exporters`) turn either surface into JSONL,
Prometheus text, or human-readable tables;
:mod:`repro.obs.campaign` folds FC1/CR1 campaign reports into
per-fault-class retry/escalation/latency breakdowns;
:mod:`repro.obs.sketch` adds mergeable quantile sketches;
:mod:`repro.obs.slo` declares service objectives with error budgets
and multi-window burn-rate alerting;
:mod:`repro.obs.dashboard` renders the live ``repro slo --watch``
view of a running campaign; :mod:`repro.obs.profiler` exports a
profiled pool's ``{path: calls}`` table as a flamegraph or profile
JSONL and extracts critical paths from span trees.
"""

from __future__ import annotations

from . import (
    anomaly,
    campaign,
    dashboard,
    exporters,
    forensics,
    instrument,
    metrics,
    profiler,
    sketch,
    slo,
    span,
)
from .anomaly import (
    Alert,
    AnomalyMonitor,
    BurnRateDetector,
    RateShiftDetector,
    alerts_table,
)
from .campaign import (
    attach_campaign_detectors,
    class_breakdown,
    fault_class,
    record_campaign_metrics,
)
from .exporters import (
    metrics_jsonl,
    prometheus_text,
    span_tree_text,
    spans_jsonl,
    summary_table,
)
from .forensics import (
    AuditFinding,
    ConsistencyAuditor,
    DisputeDossier,
    EvidenceFact,
    Timeline,
    TimelineEntry,
    TimelineReconstructor,
)
from .dashboard import DashboardFrame, budget_bar, render_frame, top_fault_classes
from .instrument import CryptoObserver, observe_crypto
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiler import (
    CriticalPath,
    CriticalStage,
    critical_path,
    flamegraph_text,
    profile_jsonl,
    shard_utilization,
    top_regions,
)
from .sketch import QuantileSketch
from .slo import (
    BurnWindow,
    CounterRatioSLI,
    SketchThresholdSLI,
    SLOManager,
    SLOReport,
    SLOSpec,
    SLOStatus,
    standard_campaign_slos,
)
from .span import Span, Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "anomaly",
    "campaign",
    "dashboard",
    "exporters",
    "forensics",
    "instrument",
    "metrics",
    "profiler",
    "sketch",
    "slo",
    "span",
    "Alert",
    "AnomalyMonitor",
    "RateShiftDetector",
    "BurnRateDetector",
    "alerts_table",
    "AuditFinding",
    "ConsistencyAuditor",
    "DisputeDossier",
    "EvidenceFact",
    "Timeline",
    "TimelineEntry",
    "TimelineReconstructor",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileSketch",
    "CriticalPath",
    "CriticalStage",
    "critical_path",
    "shard_utilization",
    "flamegraph_text",
    "profile_jsonl",
    "top_regions",
    "BurnWindow",
    "SLOSpec",
    "SLOStatus",
    "SLOReport",
    "SLOManager",
    "CounterRatioSLI",
    "SketchThresholdSLI",
    "standard_campaign_slos",
    "DashboardFrame",
    "budget_bar",
    "render_frame",
    "top_fault_classes",
    "Span",
    "Tracer",
    "CryptoObserver",
    "observe_crypto",
    "spans_jsonl",
    "metrics_jsonl",
    "prometheus_text",
    "summary_table",
    "span_tree_text",
    "fault_class",
    "class_breakdown",
    "record_campaign_metrics",
    "attach_campaign_detectors",
]


class Observability:
    """The per-deployment bundle of metrics registry + tracer."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self.metrics = MetricsRegistry(clock)
        self.tracer = Tracer(clock)


class _Unobserved:
    """The seat of an unobserved world: the switch, off, and nothing else."""

    __slots__ = ()
    enabled = False


NULL_OBS = _Unobserved()
