"""Mergeable quantile sketches.

The sharded-engine telemetry substrate: a DDSketch-style quantile
sketch with **fixed** gamma (no collapsing, no rebinning) so that
per-shard sketches merge *exactly* — the merged bucket map equals the
bucket map a single global sketch would have built from the union of
the samples, and therefore every merged quantile equals the global
one bit-for-bit.  The price of exactness is an unbounded (but in
practice tiny: one int per occupied log-bucket) bucket map instead of
DDSketch's collapsed fixed-size array; for sim-latency ranges the
occupied-bucket count stays in the low hundreds.

Accuracy contract: for any value ``v > 0`` observed into the sketch,
the representative value of its bucket is within ``alpha`` *relative*
error of ``v``; hence any quantile estimate is within ``alpha``
relative error of some sample at a neighbouring rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_ALPHA",
    "QuantileSketch",
]

# Default relative-error bound: 1% — p99 of a 10 s latency is known
# to within 100 ms, far below any bucket-histogram resolution.
DEFAULT_ALPHA = 0.01


@dataclass
class QuantileSketch:
    """A deterministic, exactly-mergeable log-bucket quantile sketch.

    Values map to integer buckets ``i = ceil(log_gamma(v))`` with
    ``gamma = (1 + alpha) / (1 - alpha)``; each bucket's representative
    value ``2 * gamma**i / (gamma + 1)`` (the geometric midpoint of the
    bucket) is within ``alpha`` relative error of every value in the
    bucket.  Values below ``min_trackable`` (and exact zeros) land in a
    dedicated zero bucket.  Negative values are rejected — every series
    this repo sketches (latency, sizes, counts) is non-negative.

    Merging requires equal ``alpha``; it adds bucket maps integerwise,
    so shard-merge == global-build is an *identity* on the bucket map,
    ``count``, ``zero_count``, ``min`` and ``max`` (``sum`` may differ
    in the last float ulps by addition order).
    """

    name: str = ""
    alpha: float = DEFAULT_ALPHA
    labels: tuple[tuple[str, str], ...] = ()
    min_trackable: float = 1e-9
    buckets: dict[int, int] = field(default_factory=dict)
    zero_count: int = 0
    count: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"sketch alpha must be in (0, 1), got {self.alpha}")
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)

    # -- writing -------------------------------------------------------------

    def observe(self, value: float) -> None:
        if value < 0.0:
            raise ValueError(f"sketch {self.name!r} takes non-negative values, got {value}")
        if value < self.min_trackable:
            self.zero_count += 1
        else:
            index = self._index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _index(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def _representative(self, index: int) -> float:
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    # -- reading -------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The *q*-quantile, within ``alpha`` relative error.

        Rank-walks the sorted bucket indices; the answer is the bucket
        representative clamped into ``[min, max]`` (so q=0 and q=1
        return the exact observed extremes).  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min if self.min is not None else 0.0
        if q == 1.0:
            return self.max if self.max is not None else 0.0
        rank = q * (self.count - 1)
        if rank < self.zero_count:
            return self.min if self.min is not None else 0.0
        running = self.zero_count
        value = self.min if self.min is not None else 0.0
        for index in sorted(self.buckets):
            running += self.buckets[index]
            if running > rank:
                value = self._representative(index)
                break
        lo = self.min if self.min is not None else value
        hi = self.max if self.max is not None else value
        return min(max(value, lo), hi)

    def count_le(self, threshold: float) -> int:
        """How many observations were ``<= threshold`` *up to the
        sketch's error bound*: buckets whose representative is within
        the bound count fully (used by threshold SLIs)."""
        if threshold < 0.0:
            return 0
        total = self.zero_count
        limit = threshold * (1.0 + self.alpha)
        for index, n in self.buckets.items():
            if self._representative(index) <= limit:
                total += n
        return total

    # -- merging -------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold *other* into this sketch in place (exact on buckets)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def merged(cls, name: str, shards: list["QuantileSketch"],
               alpha: float | None = None) -> "QuantileSketch":
        """A fresh sketch equal to the integerwise sum of *shards*."""
        if alpha is None:
            alpha = shards[0].alpha if shards else DEFAULT_ALPHA
        out = cls(name, alpha=alpha)
        for shard in shards:
            out.merge(shard)
        return out

    # -- serialization -------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe dict; buckets as sorted ``[index, count]`` pairs
        (a dict would stringify keys and sort them lexicographically)."""
        return {
            "name": self.name,
            "alpha": self.alpha,
            "labels": dict(self.labels),
            "buckets": [[i, self.buckets[i]] for i in sorted(self.buckets)],
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_snapshot(cls, row: dict) -> "QuantileSketch":
        out = cls(
            row.get("name", ""),
            alpha=row.get("alpha", DEFAULT_ALPHA),
            labels=tuple(sorted((k, v) for k, v in row.get("labels", {}).items())),
        )
        out.buckets = {int(i): int(n) for i, n in row.get("buckets", [])}
        out.zero_count = int(row.get("zero_count", 0))
        out.count = int(row.get("count", 0))
        out.sum = float(row.get("sum", 0.0))
        out.min = row.get("min")
        out.max = row.get("max")
        return out

