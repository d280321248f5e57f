"""Pool call-count profiles + critical-path analysis.

A pool profile (``PoolResult.profile``, set when
``EngineConfig.profile`` is) is a ``{path: calls}`` table keyed by
collapsed-stack path, the flamegraph convention: one
``engine/drive;crypto/<op>`` row per crypto op the drive phase called,
holding its ``crypto.calls`` count, and nothing else.  Only
per-message evidence is profiled (``EngineConfig`` rejects ``profile``
with ``batch_size``: with batching, where seals happen depends on the
shard layout).

Every row counts sessions' calls, so the per-shard tables sum exactly to
the unsharded one (:func:`~repro.engine.sharding.merge_pool_results`)
and the exporters (:func:`flamegraph_text`, :func:`profile_jsonl`,
:func:`top_regions`) are byte-identical across shard counts and
same-seed runs.  Wall time per operation comes from ``python3 -m bench
--trace 1``; sim time per stage from :func:`critical_path`.

The critical-path extractor walks an existing span tree (no new
instrumentation): from the root, repeatedly descend into the child
whose span ends last; each step's *self* time is its duration minus
the chosen child's.  On the protocol's nested trees the stage
self-times telescope to exactly the root duration — the reconciliation
the OB4 experiment asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..determinism import canon_float
from .span import Span, Tracer

__all__ = [
    "CriticalStage",
    "CriticalPath",
    "critical_path",
    "shard_utilization",
    "flamegraph_text",
    "profile_jsonl",
    "top_regions",
]


# ---------------------------------------------------------------------------
# Critical-path extraction over span trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalStage:
    """One span on the critical path with its self (exclusive) time."""

    name: str
    span_id: int
    start: float
    end: float
    self_seconds: float


@dataclass
class CriticalPath:
    """The dominant root-to-leaf chain of one transaction's span tree."""

    trace_id: str
    stages: list[CriticalStage]
    total: float  # measured elapsed: chain extent, first start to last end

    @property
    def length(self) -> float:
        """Sum of stage self-times; equals ``total`` when the chain has
        no dead time (each stage's self = duration minus its overlap
        with the chosen child, so the sum is the union of the chain's
        intervals)."""
        return sum(stage.self_seconds for stage in self.stages)

    def dominant(self) -> CriticalStage:
        """The stage with the most self time (ties: first on the path)."""
        return max(self.stages, key=lambda s: s.self_seconds)

    def reconciles(self) -> bool:
        """Do the stage self-times account for the measured elapsed,
        to a relative 1e-9?

        False means dead time: somewhere on the path a child started
        after its parent span had already ended, and that gap belongs
        to no stage — the tree under-explains the transaction.
        """
        return abs(self.length - self.total) <= 1e-9 * max(1.0, abs(self.total))

    def rows(self) -> list[list]:
        return [
            [stage.name, canon_float(stage.start), canon_float(stage.end),
             canon_float(stage.self_seconds)]
            for stage in self.stages
        ]


def _span_end(span: Span) -> float:
    return span.end if span.end is not None else span.start


def critical_path(tracer: Tracer, trace_id: str) -> CriticalPath | None:
    """Extract the critical path of one trace (None if it has no root).

    From the root, descend into the child whose span *ends last* (the
    one that kept the transaction open); ties break toward the earliest
    span id.  A stage's self time is its duration minus its *overlap*
    with the chosen child, clamped at zero.  On strictly nested trees
    the overlap is the child's full duration and the sum telescopes to
    the root's duration; on handoff-shaped trees (a child opened as its
    parent closes — the download leg of a session) the sum is the union
    of the chain's intervals, so ``length == total`` exactly unless the
    chain has unattributed dead time.
    """
    root = tracer.root(trace_id)
    if root is None:
        return None
    by_parent: dict[int, list[Span]] = {}
    for span in tracer.trace(trace_id):
        by_parent.setdefault(span.parent_id, []).append(span)
    chain: list[Span] = [root]
    node = root
    while True:
        kids = by_parent.get(node.span_id)
        if not kids:
            break
        node = max(kids, key=lambda s: (_span_end(s), -s.span_id))
        chain.append(node)
    stages = []
    for i, span in enumerate(chain):
        end = _span_end(span)
        if i + 1 < len(chain):
            child = chain[i + 1]
            overlap = max(
                0.0, min(end, _span_end(child)) - max(span.start, child.start))
        else:
            overlap = 0.0
        stages.append(CriticalStage(
            name=span.name,
            span_id=span.span_id,
            start=span.start,
            end=end,
            self_seconds=max(0.0, span.duration - overlap),
        ))
    # Measured elapsed: the chain's extent.  On nested trees the root
    # ends last; on handoff trees the final child does.
    total = max(0.0, max(_span_end(s) for s in chain) - root.start)
    return CriticalPath(trace_id=trace_id, stages=stages, total=total)


# ---------------------------------------------------------------------------
# Shard utilization / imbalance
# ---------------------------------------------------------------------------


def shard_utilization(shard_summaries) -> dict:
    """Shard imbalance from merged per-shard summaries (post-merge, no
    re-run needed): the populated ``shards`` count and ``session_skew``,
    the max per-shard session count over the mean (1.0 = perfectly
    balanced).  Both are counts, so they are pure functions of the seed
    and the shard layout."""
    sessions = [int(s.get("sessions", 0)) for s in shard_summaries]
    if not sessions:
        return {"shards": 0, "session_skew": 1.0}
    mean_sessions = sum(sessions) / len(sessions)
    return {
        "shards": len(sessions),
        "session_skew": round(max(sessions) / mean_sessions, 6)
        if mean_sessions > 0 else 1.0,
    }


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def flamegraph_text(profile: dict[str, int]) -> str:
    """Collapsed-stack flamegraph text: one ``path calls`` line per
    row, sorted by path."""
    lines = [f"{path} {profile[path]}" for path in sorted(profile)]
    return "\n".join(lines) + ("\n" if lines else "")


def profile_jsonl(profile: dict[str, int]) -> str:
    """The profile as JSONL: a ``{"kind": "profile"}`` header carrying
    the active RunStamp, then one ``{"calls", "path"}`` row per path
    (sorted by path, sorted keys, tight separators) — the byte-identity
    surface OB4 gates on."""
    from ..scenarios.context import current_stamp

    stamp = current_stamp()
    header: dict = {"kind": "profile"}
    if stamp is not None:
        header.update(stamp.as_meta())
    rows = [header]
    rows.extend({"calls": profile[path], "path": path}
                for path in sorted(profile))
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in rows
    )


def top_regions(profile: dict[str, int], k: int = 5) -> list[tuple[str, int]]:
    """The *k* most-called paths as ``(path, calls)`` rows, ranked by
    calls then path, so the ranking is deterministic."""
    return sorted(profile.items(), key=lambda row: (-row[1], row[0]))[:k]
