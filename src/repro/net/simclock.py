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
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Jump forward to absolute time *t* (never backwards)."""
        if t < self._now:
            raise NetworkError(f"clock cannot move backwards: {t} < {self._now}")
        self._now = t

    def advance_by(self, dt: float) -> None:
        """Advance by *dt* >= 0 seconds.

        Delegates to :meth:`advance_to` so relative steps share the
        absolute path's monotonicity check and rounding — mixing the
        two must not accumulate float drift against the scheduler's
        absolute ``advance_to`` timestamps.
        """
        if dt < 0:
            raise NetworkError(f"negative clock step: {dt}")
        self.advance_to(self._now + dt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(t={self._now:.6f})"
