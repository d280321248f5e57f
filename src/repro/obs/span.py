"""Span-based structured tracing for TPNR transactions.

A :class:`Span` is one timed unit of protocol work (a transaction, a
resolve sub-protocol, a WAL replay).  Spans form trees: every span
carries a ``trace_id`` — for TPNR work this is the *transaction id* —
and an optional ``parent_id`` pointing at another span of the same
trace.  Cross-party linking is automatic: the :class:`Tracer` lives on
the *network* (one per deployment), so the provider's span for
transaction ``txn`` parents itself under the client's root span for
``txn`` without the parties sharing any state — which also means span
trees survive amnesia crashes that wipe a party's volatile memory.

Correlation with the wire-level :class:`repro.net.trace.TraceRecorder`
is by construction: span events that correspond to messages carry the
envelope ``msg_id``, so a span event and a trace event with the same
``msg_id`` describe the same bytes.

Timestamps come from the tracer's clock callable (the sim clock), so
span dumps are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SpanEvent", "Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span."""

    time: float
    name: str
    msg_id: int = 0
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        row = {"time": self.time, "name": self.name}
        if self.msg_id:
            row["msg_id"] = self.msg_id
        if self.attrs:
            row["attrs"] = dict(sorted(self.attrs.items()))
        return row


@dataclass
class Span:
    """One timed unit of work inside a trace tree."""

    span_id: int
    trace_id: str
    name: str
    start: float
    parent_id: int = 0
    attrs: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    end: float | None = None
    status: str = "open"

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def event(self, time: float, name: str, msg_id: int = 0, **attrs) -> SpanEvent:
        ev = SpanEvent(time, name, msg_id, attrs)
        self.events.append(ev)
        return ev

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            # A span with no end was cut off mid-flight (crash, hung
            # session): exports must say so explicitly instead of
            # letting it masquerade as a finished span.
            "status": self.status if self.end is not None else "unfinished",
            "attrs": dict(sorted(self.attrs.items())),
            "events": [ev.to_dict() for ev in self.events],
        }


class Tracer:
    """Owns every span of one observed deployment.

    Span ids are sequential, so dumps are stable per seed.  The first
    span started for a trace_id becomes the trace's *root*; later spans
    for the same trace_id auto-parent under it unless an explicit
    parent is given.
    """

    def __init__(self, clock=None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._next_id = 1
        self.spans: list[Span] = []
        self._roots: dict[str, Span] = {}

    @property
    def now(self) -> float:
        return self._clock()

    def start(self, trace_id: str, name: str, parent: Span | None = None, **attrs) -> Span:
        root = self._roots.get(trace_id)
        if parent is None and root is not None:
            parent = root
        span = Span(
            span_id=self._next_id,
            trace_id=trace_id,
            name=name,
            start=self.now,
            parent_id=parent.span_id if parent is not None else 0,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        if root is None:
            self._roots[trace_id] = span
        return span

    def finish(self, span: Span, status: str = "ok") -> None:
        if span.finished:
            return
        span.end = self.now
        span.status = status

    def root(self, trace_id: str) -> Span | None:
        return self._roots.get(trace_id)

    def trace(self, trace_id: str) -> list[Span]:
        """Every span of one trace, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def tree_complete(self, trace_id: str) -> bool:
        """True iff the trace has a root, every span is finished, and
        every non-root span parent-links to a span of the same trace."""
        spans = self.trace(trace_id)
        if not spans:
            return False
        ids = {s.span_id for s in spans}
        root = self._roots.get(trace_id)
        for s in spans:
            if not s.finished:
                return False
            if s is root:
                if s.parent_id != 0:
                    return False
            elif s.parent_id not in ids:
                return False
        return True

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]


class _NullSpan(Span):
    def event(self, time: float, name: str, msg_id: int = 0, **attrs) -> SpanEvent:
        return SpanEvent(0.0, name)


_SHARED_NULL_SPAN = _NullSpan(span_id=0, trace_id="", name="null", start=0.0)


class NullTracer(Tracer):
    """The disabled tracer: start/finish are no-ops on a shared span."""

    def start(self, trace_id: str, name: str, parent: Span | None = None, **attrs) -> Span:
        return _SHARED_NULL_SPAN

    def finish(self, span: Span, status: str = "ok") -> None:
        pass


NULL_TRACER = NullTracer()
