"""Order statistics shared by the runner and ``compare`` (stdlib only)."""

from __future__ import annotations

import statistics


def quantile(values, q: float) -> float:
    """Exact linearly interpolated quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def iqr(values) -> float:
    """First-to-third quartile distance, as ``statistics.quantiles`` cuts it."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1
