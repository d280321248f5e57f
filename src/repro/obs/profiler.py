"""Deterministic region profiler + critical-path analysis.

The observe→attribute→protect gap this module closes: spans record
*what happened* per transaction and the crypto observer records *flat*
call counts, but nothing attributes cost to a place in the code.
:class:`RegionProfiler` does, on the deterministic simulation clock:
per-region call counts and sim elapsed are pure functions of the seed,
so every profile is byte-reproducible and comparable across machines.
Real CPU cost is measured outside the package — ``python3 -m bench
--trace 1`` exports per-operation self time.

Regions nest (``with profiler.region("engine/drive"): ...``) and each
region keeps its call count, total/self sim elapsed, and a
:class:`~repro.obs.sketch.QuantileSketch` of sim elapsed — the sketch
merge is an exact integer operation, so merging per-shard profilers
reconstructs the unsharded profile bit-for-bit
(:meth:`RegionProfiler.merged`).

**Shard invariance** is a per-region contract, not a global one.  A
harness region entered once per shard (``engine/drive``) has a
shard-dependent call count; the crypto leaves recorded *under* it are
session-driven and sum exactly across shards.  Each region therefore
carries an ``invariant`` flag and the exporters (:func:`flamegraph_text`,
:func:`profile_jsonl`, :func:`top_regions`) emit only invariant regions
— which is what makes the artifacts byte-identical across 1/2/4/8
shard counts and across same-seed runs.  The ``scope`` flag sets the
default for descendants, so a non-invariant harness frame can still
host invariant leaves (``engine/drive`` sets ``scope=True``) or poison
them (``engine/build`` sets ``scope=False`` because enrollment crypto
repeats per shard).

The critical-path extractor walks an existing span tree (no new
instrumentation): from the root, repeatedly descend into the child
whose span ends last; each step's *self* time is its duration minus
the chosen child's.  On the protocol's nested trees the stage
self-times telescope to exactly the root duration — the reconciliation
the OB4 experiment asserts.

Disabled cost follows the repo's observability idiom: the pool seats
:data:`NULL_PROFILER` (shared no-op, reentrant null context manager)
unless ``EngineConfig.profile`` is set, so the off path is one
attribute load and a no-op ``with``, and an unprofiled run records no
region (an OB4 ``expect`` fact).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..determinism import canon_float
from .sketch import DEFAULT_ALPHA, QuantileSketch
from .span import Span, Tracer

__all__ = [
    "RegionStat",
    "RegionProfiler",
    "NullRegionProfiler",
    "NULL_PROFILER",
    "CriticalStage",
    "CriticalPath",
    "critical_path",
    "shard_utilization",
    "flamegraph_text",
    "profile_jsonl",
    "top_regions",
]

#: Path separator in collapsed-stack form (the flamegraph convention).
PATH_SEP = ";"


@dataclass
class RegionStat:
    """Accumulated cost of one region path across all its entries."""

    path: str
    invariant: bool = True
    calls: int = 0
    sim_total: float = 0.0
    self_sim_total: float = 0.0
    sim_sketch: QuantileSketch = field(default=None)  # type: ignore[assignment]

    def row(self) -> dict:
        """The exported fields: calls and sim-clock totals/quantiles."""
        return {
            "path": self.path,
            "calls": self.calls,
            "sim_total": canon_float(self.sim_total),
            "self_sim_total": canon_float(self.self_sim_total),
            "sim_p50": canon_float(self.sim_sketch.quantile(0.50)),
            "sim_p99": canon_float(self.sim_sketch.quantile(0.99)),
        }


class _Frame:
    """One open region on the stack (internal)."""

    __slots__ = ("path", "invariant", "scope", "start_sim", "child_sim")

    def __init__(self, path: str, invariant: bool, scope: bool,
                 start_sim: float) -> None:
        self.path = path
        self.invariant = invariant
        self.scope = scope
        self.start_sim = start_sim
        self.child_sim = 0.0


class _Region:
    """The reusable context manager handed out by :meth:`region`."""

    __slots__ = ("_profiler", "_name", "_invariant", "_scope")

    def __init__(self, profiler: "RegionProfiler", name: str,
                 invariant: bool | None, scope: bool | None) -> None:
        self._profiler = profiler
        self._name = name
        self._invariant = invariant
        self._scope = scope

    def __enter__(self) -> "_Region":
        self._profiler._push(self._name, self._invariant, self._scope)
        return self

    def __exit__(self, *exc) -> None:
        self._profiler._pop()


class RegionProfiler:
    """Hierarchical sim-clock region accounting with exact merge."""

    enabled = True

    def __init__(self, clock=None, alpha: float = DEFAULT_ALPHA) -> None:
        # Sim clock: a callable -> current sim seconds (0 when absent,
        # e.g. a profiler counting pure-compute setup before a Simulator
        # exists).
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.alpha = alpha
        self._stats: dict[str, RegionStat] = {}
        self._stack: list[_Frame] = []

    # -- recording -----------------------------------------------------------

    def region(self, name: str, invariant: bool | None = None,
               scope: bool | None = None) -> _Region:
        """A ``with``-able region.  ``invariant=None`` inherits the
        enclosing scope (root scope: invariant).  ``scope`` sets the
        default for descendants and leaves recorded inside."""
        return _Region(self, name, invariant, scope)

    def _current_scope(self) -> bool:
        return self._stack[-1].scope if self._stack else True

    def _push(self, name: str, invariant: bool | None,
              scope: bool | None) -> None:
        parent_path = self._stack[-1].path if self._stack else ""
        path = parent_path + PATH_SEP + name if parent_path else name
        inherited = self._current_scope()
        resolved_invariant = inherited if invariant is None else invariant
        resolved_scope = resolved_invariant if scope is None else scope
        self._stack.append(_Frame(
            path, resolved_invariant, resolved_scope, float(self._clock())))

    def _pop(self) -> None:
        frame = self._stack.pop()
        sim_elapsed = max(0.0, float(self._clock()) - frame.start_sim)
        self._record(frame.path, frame.invariant, sim_elapsed,
                     max(0.0, sim_elapsed - frame.child_sim))
        if self._stack:
            self._stack[-1].child_sim += sim_elapsed

    def record_leaf(self, name: str, sim_seconds: float = 0.0,
                    invariant: bool | None = None) -> None:
        """Record one leaf call under the current region (no nesting):
        the crypto observer's feed.  Invariance follows the enclosing
        scope unless overridden, and the leaf's elapsed counts as
        *child* time of the open frame — so a parent's self time never
        double-counts the work done inside it."""
        sim_seconds = max(0.0, sim_seconds)
        parent_path = self._stack[-1].path if self._stack else ""
        path = parent_path + PATH_SEP + name if parent_path else name
        if invariant is None:
            invariant = self._current_scope()
        self._record(path, invariant, sim_seconds, sim_seconds)
        if self._stack:
            self._stack[-1].child_sim += sim_seconds

    def _stat(self, path: str, invariant: bool) -> RegionStat:
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = RegionStat(
                path=path,
                invariant=invariant,
                sim_sketch=QuantileSketch(
                    "profile.sim_seconds", alpha=self.alpha,
                    labels=(("region", path),)),
            )
        return stat

    def _record(self, path: str, invariant: bool, sim_elapsed: float,
                self_sim: float) -> None:
        stat = self._stat(path, invariant)
        stat.invariant = stat.invariant and invariant
        stat.calls += 1
        stat.sim_total += sim_elapsed
        stat.self_sim_total += self_sim
        stat.sim_sketch.observe(sim_elapsed)

    # -- reading -------------------------------------------------------------

    def stats(self) -> list[RegionStat]:
        """Every region stat, sorted by path (creation-order free)."""
        return [self._stats[path] for path in sorted(self._stats)]

    # -- merging -------------------------------------------------------------

    def merge(self, other: "RegionProfiler") -> "RegionProfiler":
        """Fold *other*'s stats into this profiler, exactly.

        Counts and totals add; sketches merge bucket-wise (the exact
        integer merge — see :mod:`repro.obs.sketch`); invariance ANDs,
        so a path that was shard-dependent anywhere stays excluded from
        the exports after the merge.
        """
        for path in sorted(other._stats):
            theirs = other._stats[path]
            mine = self._stat(path, theirs.invariant)
            mine.invariant = mine.invariant and theirs.invariant
            mine.calls += theirs.calls
            mine.sim_total += theirs.sim_total
            mine.self_sim_total += theirs.self_sim_total
            mine.sim_sketch.merge(theirs.sim_sketch)
        return self

    @classmethod
    def merged(cls, profilers, alpha: float | None = None) -> "RegionProfiler":
        """A fresh profiler holding the exact fold of *profilers*."""
        profilers = list(profilers)
        if alpha is None:
            alpha = profilers[0].alpha if profilers else DEFAULT_ALPHA
        out = cls(alpha=alpha)
        for prof in profilers:
            out.merge(prof)
        return out


class _NullRegion:
    """Shared reentrant no-op context manager (stateless)."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_REGION = _NullRegion()


class NullRegionProfiler(RegionProfiler):
    """The disabled profiler: every operation is a no-op.

    ``region()`` returns one shared stateless context manager, so the
    off path costs an attribute load and a method call — the same
    budget as :data:`~repro.obs.metrics.NULL_METRICS`.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def region(self, name: str, invariant: bool | None = None,
               scope: bool | None = None) -> _NullRegion:  # type: ignore[override]
        return _NULL_REGION

    def record_leaf(self, name: str, sim_seconds: float = 0.0,
                    invariant: bool | None = None) -> None:
        return None

    def merge(self, other: RegionProfiler) -> RegionProfiler:
        return self


NULL_PROFILER = NullRegionProfiler()


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


def flamegraph_text(profiler: RegionProfiler) -> str:
    """Collapsed-stack flamegraph text: one ``path calls`` line per
    invariant region, sorted by path — byte-identical across same-seed
    runs *and* across shard counts."""
    lines = [f"{stat.path} {stat.calls}"
             for stat in profiler.stats() if stat.invariant]
    return "\n".join(lines) + ("\n" if lines else "")


def profile_jsonl(profiler: RegionProfiler) -> str:
    """The profile as JSONL: a RunStamp header row, then one region row
    per invariant region (sorted by path, sorted keys, tight
    separators) — the byte-identity surface OB4 gates on.

    The header's constant ``"deterministic_only": true`` key is part of
    the document format that pinned digests (OB4's) cover.
    """
    from ..scenarios.context import current_stamp

    stamp = current_stamp()
    header: dict = {"kind": "profile", "alpha": profiler.alpha,
                    "deterministic_only": True}
    if stamp is not None:
        header.update(stamp.as_meta())
    rows = [header]
    rows.extend(stat.row() for stat in profiler.stats() if stat.invariant)
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in rows
    )


def top_regions(profiler: RegionProfiler, k: int = 5) -> list[tuple[str, int, float]]:
    """The *k* hottest invariant regions as ``(path, calls,
    self_sim_total)`` rows for the dashboard panel — ranked by calls
    then path, so the ranking is deterministic."""
    ranked = sorted((s for s in profiler.stats() if s.invariant),
                    key=lambda s: (-s.calls, s.path))
    return [
        (s.path, s.calls, canon_float(s.self_sim_total))
        for s in ranked[:k]
    ]
