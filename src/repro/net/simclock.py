"""Simulated wall clock.

A tiny mutable clock owned by the discrete-event :class:`Simulator`.
All timestamps in the library (message sent-at times, certificate
validity, protocol time limits, shipping transit) are expressed in
simulated seconds read from one of these, never from the host clock
(no module imports ``time``), so runs are deterministic.
"""

from __future__ import annotations

from ..errors import NetworkError

__all__ = ["SimClock"]


class SimClock:
    """Monotonically advancing simulated time in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        start = float(start)
        if start != start:
            raise NetworkError("clock cannot start at NaN")
        self._now = start

    def advance_to(self, t: float) -> None:
        """Jump forward to absolute time *t* (never backwards)."""
        if not t >= self._now:  # also rejects NaN
            raise NetworkError(f"clock cannot move backwards or to NaN: {t} < {self._now}")
        self._now = t
