"""Discrete-event simulation engine.

A classic event-heap simulator: callbacks are scheduled at absolute or
relative simulated times and executed in timestamp order (FIFO among
equal timestamps, guaranteed by a monotonic tiebreak counter).  Heap
entries are ``(time, seq, event)`` tuples, so ordering compares in C;
``seq`` is unique, so the event itself is never compared.  The
engine is single-threaded and deterministic — given the same schedule
of callbacks and the same DRBG seeds, every run is identical.

Protocol roles (Alice, Bob, TTP) run *on top of* this engine: message
deliveries and timeouts are just scheduled callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable

from ..errors import NetworkError
from .simclock import SimClock

__all__ = ["Simulator", "ScheduledEvent"]


@dataclass(eq=False)
class ScheduledEvent:
    """Handle to one scheduled callback; the heap orders by (time, seq)."""

    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it (O(1) lazy deletion)."""
        self.cancelled = True


class Simulator:
    """Event heap plus clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("at t=1.5"))
        sim.run()
    """

    def __init__(self, start: float = 0.0, max_events: int = 10_000_000) -> None:
        self.clock = SimClock(start)
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._max_events = max_events
        self._processed = 0

    #: The clock's time, read by a C getter: no Python frame per read,
    #: and the clock stays the one place the time is stored.
    now = property(attrgetter("clock._now"), doc="Current simulated time in seconds.")

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule *callback* to run *delay* seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise NetworkError(f"cannot schedule in the past or at NaN (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, t: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated time *t*."""
        now = self.clock._now
        if not t >= now:  # also rejects NaN
            raise NetworkError(f"cannot schedule in the past or at NaN (t={t}, now={now})")
        seq = self._seq
        event = ScheduledEvent(t, seq, callback)
        self._seq = seq + 1
        heappush(self._heap, (t, seq, event))
        return event

    def step(self) -> bool:
        """Run the next pending event.  Returns False when idle."""
        heap = self._heap
        while heap:
            t, _, event = heappop(heap)
            if event.cancelled:
                continue
            self.clock.advance_to(t)
            self._processed += 1
            if self._processed > self._max_events:
                raise NetworkError(f"event budget exceeded ({self._max_events}); runaway protocol?")
            event.callback()
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run events until the heap is empty or time would pass *until*.

        With *until* set, the clock finishes advanced to exactly
        *until* (useful for slicing a simulation into phases).
        """
        if until is not None and until != until:
            raise NetworkError("cannot run until NaN")
        heap = self._heap
        while heap:
            t, _, head = heap[0]
            if head.cancelled:
                heappop(heap)
                continue
            if until is not None and t > until:
                break
            self.step()
        if until is not None and self.now < until:
            self.clock.advance_to(until)

    def next_event_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` when idle.

        Lazily discards cancelled heap heads on the way, so repeated
        polling (the throughput engine's run loop slices time with
        this) stays amortized O(log n).
        """
        heap = self._heap
        while heap:
            t, _, head = heap[0]
            if head.cancelled:
                heappop(heap)
                continue
            return t
        return None

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)
