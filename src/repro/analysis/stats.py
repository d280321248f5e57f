"""Statistical helpers for experiment reporting.

Detection/attribution rates in the F5 experiment are binomial
proportions estimated from a finite number of trials; reporting them
bare invites over-reading.  This module provides Wilson score intervals
(well-behaved at p = 0 and p = 1, unlike the normal approximation).
"""

from __future__ import annotations

import math
from statistics import NormalDist

from ..errors import ReproError

__all__ = ["wilson_interval", "format_rate"]


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ReproError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ReproError(f"successes {successes} out of range for {trials} trials")
    if not 0 < confidence < 1:
        raise ReproError("confidence must be in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = max(0.0, centre - half)
    high = min(1.0, centre + half)
    # The boundary cases are exact mathematically; snap away the
    # floating-point residue so p = 0 / p = 1 sit inside their interval.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


def format_rate(successes: int, trials: int, confidence: float = 0.95) -> str:
    """``"0.80 [0.49, 0.94]"``-style rate with its Wilson interval."""
    low, high = wilson_interval(successes, trials, confidence)
    return f"{successes / trials:.2f} [{low:.2f}, {high:.2f}]"

