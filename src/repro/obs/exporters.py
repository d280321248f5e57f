"""Exporters: JSONL dumps, Prometheus text format, summary tables.

Three consumers, three formats:

* machine pipelines — :func:`spans_jsonl` / :func:`metrics_jsonl`, one
  JSON object per line, keys sorted, stable across same-seed runs;
* scrape-style tooling — :func:`prometheus_text`, the Prometheus text
  exposition format (counters, gauges, and cumulative ``_bucket``
  series with an explicit ``+Inf`` bucket);
* humans — :func:`summary_table` / :func:`span_tree_text`, aligned
  plain text in the same style as the experiment tables.
"""

from __future__ import annotations

import json

from .metrics import MetricsRegistry
from .sketch import QuantileSketch
from .span import Span, Tracer

__all__ = [
    "spans_jsonl",
    "metrics_jsonl",
    "trace_jsonl",
    "prometheus_text",
    "summary_table",
    "span_tree_text",
]


def spans_jsonl(tracer: Tracer) -> str:
    """All spans, one JSON object per line, in span-id order."""
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in tracer.to_dicts()
    )


def metrics_jsonl(registry: MetricsRegistry) -> str:
    """The metrics snapshot, one JSON object per line."""
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in registry.snapshot()
    )


def trace_jsonl(recorder) -> str:
    """The wire-level trace, one JSON object per event, in wire order.

    *recorder* is a :class:`repro.net.trace.TraceRecorder` (typed by
    duck: anything with ``.events`` of TraceEvent-shaped records).
    Keys are sorted and ``note`` is omitted when empty, so same-seed
    runs export byte-identical documents.
    """
    rows = []
    for event in recorder.events:
        row = {
            "time": event.time,
            "action": event.action,
            "src": event.src,
            "dst": event.dst,
            "kind": event.kind,
            "size_bytes": event.size_bytes,
            "msg_id": event.msg_id,
        }
        if event.note:
            row["note"] = event.note
        rows.append(row)
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in rows
    )


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{v}"' for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _prom_num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for row in registry.snapshot():
        name = _prom_name(row["name"])
        if row["kind"] == "counter":
            declare(name, "counter")
            lines.append(f"{name}{_prom_labels(row['labels'])} {_prom_num(row['value'])}")
        elif row["kind"] == "gauge":
            declare(name, "gauge")
            lines.append(f"{name}{_prom_labels(row['labels'])} {_prom_num(row['value'])}")
        elif row["kind"] == "sketch":
            # Sketches export as Prometheus summaries: pre-computed
            # quantile series plus _sum/_count.
            declare(name, "summary")
            sketch = QuantileSketch.from_snapshot(row)
            for q in (0.5, 0.9, 0.99):
                ql = _prom_labels(row["labels"], {"quantile": _prom_num(q)})
                lines.append(f"{name}{ql} {_prom_num(sketch.quantile(q))}")
            lines.append(f"{name}_sum{_prom_labels(row['labels'])} {_prom_num(row['sum'])}")
            lines.append(f"{name}_count{_prom_labels(row['labels'])} {row['count']}")
        else:
            declare(name, "histogram")
            running = 0
            for bound, n in zip(row["buckets"], row["bucket_counts"]):
                running += n
                le = _prom_labels(row["labels"], {"le": _prom_num(float(bound))})
                lines.append(f"{name}_bucket{le} {running}")
            running += row["bucket_counts"][-1]
            inf = _prom_labels(row["labels"], {"le": "+Inf"})
            lines.append(f"{name}_bucket{inf} {running}")
            lines.append(f"{name}_sum{_prom_labels(row['labels'])} {_prom_num(row['sum'])}")
            lines.append(f"{name}_count{_prom_labels(row['labels'])} {row['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _labels_str(labels: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def summary_table(registry: MetricsRegistry, title: str = "Metrics summary") -> str:
    """A human-readable table of every instrument's headline value."""
    from ..analysis.report import render_table  # lazy: obs must stay importable from net/core

    rows: list[list] = []
    for row in registry.snapshot():
        if row["kind"] == "histogram":
            mean = row["sum"] / row["count"] if row["count"] else 0.0
            rows.append([row["name"], _labels_str(row["labels"]), "histogram",
                         f"n={row['count']} mean={mean:.4g}"])
        elif row["kind"] == "sketch":
            sketch = QuantileSketch.from_snapshot(row)
            rows.append([row["name"], _labels_str(row["labels"]), "sketch",
                         f"n={row['count']} p50={sketch.quantile(0.5):.4g} "
                         f"p99={sketch.quantile(0.99):.4g}"])
        else:
            rows.append([row["name"], _labels_str(row["labels"]), row["kind"],
                         _prom_num(row["value"])])
    return render_table(["metric", "labels", "kind", "value"], rows, title=title)


def span_tree_text(tracer: Tracer, trace_id: str) -> str:
    """Render one trace's span tree with indentation, for humans."""
    spans = tracer.trace(trace_id)
    if not spans:
        return f"(no spans for trace {trace_id})"
    by_parent: dict[int, list[Span]] = {}
    for s in spans:
        by_parent.setdefault(s.parent_id, []).append(s)
    lines = [f"trace {trace_id}"]
    # Top-level spans: parent 0, or a parent outside this trace's ids
    # (shouldn't happen for complete trees, but render orphans anyway).
    ids = {s.span_id for s in spans}
    for s in spans:
        if s.parent_id == 0 or s.parent_id not in ids:
            _walk_one(s, by_parent, lines, 0)
    return "\n".join(lines)


def _walk_one(span: Span, by_parent: dict[int, list[Span]], lines: list[str], depth: int) -> None:
    # A span with no end was cut off mid-flight: render it as
    # "unfinished" so crash-interrupted work is visible at a glance.
    if span.end is not None:
        end, status = f"{span.end:.4g}s", span.status
    else:
        end, status = "open", "unfinished"
    lines.append(f"{'  ' * depth}- {span.name} [{status}] {span.start:.4g}s -> {end}")
    for ev in span.events:
        tag = f" msg#{ev.msg_id}" if ev.msg_id else ""
        lines.append(f"{'  ' * (depth + 1)}. {ev.name}{tag} @{ev.time:.4g}s")
    for child in by_parent.get(span.span_id, []):
        _walk_one(child, by_parent, lines, depth + 1)
