"""Analysis layer: metrics, experiment runners, and report rendering.

``experiments`` holds one deterministic runner per table/figure of
DESIGN.md §4; the ``benchmarks/`` directory times and prints them.
The multi-tenant runners (W1, R1, TP1, TP2, OB4) drive
:func:`repro.engine.run_pool` and read only its ``PoolResult``: this
layer has no workload driver of its own.
"""

from . import diagram, experiments, metrics, report, stats
from .experiments import (
    ExperimentResult,
    experiment_attacks,
    experiment_evidence_ablation,
    experiment_fault_campaign,
    experiment_resilience,
    experiment_scalability,
    experiment_bridging,
    experiment_fig1,
    experiment_fig2,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6,
    experiment_shipping,
    experiment_step_counts,
    experiment_table1,
)
from .diagram import sequence_diagram
from .metrics import ProtocolCost, compare, measure
from .stats import format_rate, wilson_interval
from .report import render_kv, render_table

__all__ = [
    "diagram",
    "stats",
    "sequence_diagram",
    "format_rate",
    "wilson_interval",
    "experiments",
    "metrics",
    "report",
    "experiment_evidence_ablation",
    "experiment_fault_campaign",
    "experiment_resilience",
    "experiment_scalability",
    "ExperimentResult",
    "experiment_attacks",
    "experiment_bridging",
    "experiment_fig1",
    "experiment_fig2",
    "experiment_fig3",
    "experiment_fig4",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_shipping",
    "experiment_step_counts",
    "experiment_table1",
    "ProtocolCost",
    "compare",
    "measure",
    "render_kv",
    "render_table",
]
