"""The metrics registry: counters, gauges, quantile sketches, and
export-only fixed-bucket histograms.

Zero-dependency and deterministic: instruments are identified by
``(name, sorted labels)``, values are plain Python numbers, and every
snapshot is stamped with the **simulated** clock (the registry is given
a ``clock`` callable, normally ``lambda: sim.now``), so two runs with
the same seed produce byte-identical snapshots.  A lookup sorts and
stringifies its labels, so every label order and spelling of one
series reaches one object.  No series holds wall time: the package
never reads a real clock (the repository benchmark, ``python3 -m
bench``, is where CPU cost is measured).

A registry exists only in an observed world.  Code that *might* be
observed tests its world's one switch, ``obs.enabled``
(:data:`repro.obs.NULL_OBS` when off), before it reaches for
``obs.metrics``, so the disabled hot path costs one attribute load and
one branch; an unobserved world has no registry to write to, and an
unguarded write raises instead of vanishing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .sketch import DEFAULT_ALPHA, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

# Upper bounds in simulated seconds — spans the sub-millisecond LAN
# deliveries up to the multi-timeout Resolve escalations.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing number (float so it can carry bytes
    and simulated seconds alike)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """A number that can go up and down (queue depths, open spans)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """A fixed-bucket counter set, exported as Prometheus ``_bucket`` series.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the
    implicit final bucket is ``+Inf``.  Buckets are fixed at creation —
    no rebinning, so merged/compared snapshots always line up.

    Export only: nothing reads a quantile off the buckets.  Every
    reported or alerted-on quantile comes from a
    :class:`~repro.obs.sketch.QuantileSketch`.

    The observed ``min``/``max`` are tracked alongside the buckets
    (``None`` until the first observation).  Snapshot rows gained
    ``"min"``/``"max"`` keys additively — every pre-existing key is
    unchanged, so older snapshot consumers keep working.
    """

    name: str
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    labels: tuple[tuple[str, str], ...] = ()
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram buckets must be sorted: {self.buckets}")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value


class MetricsRegistry:
    """Get-or-create home for every instrument of one observed world."""

    def __init__(self, clock=None) -> None:
        # clock: () -> float, normally the simulation clock.  Snapshots
        # are stamped with it so they are deterministic per seed.
        self._clock = clock or (lambda: 0.0)
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._sketches: dict[tuple, QuantileSketch] = {}
        # One kind per metric name, ever — a name that is a counter in
        # one call site and a gauge in another would export two
        # conflicting series under one identifier.
        self._kind_of: dict[str, str] = {}

    @property
    def now(self) -> float:
        return self._clock()

    # -- instruments ---------------------------------------------------------

    def _get(self, kind: str, table: dict, name: str, labels: dict, make, *args):
        """Find or create the series ``(name, sorted str labels)``.

        Creating one (``make(name, *args, labels=...)``) claims *name*
        for *kind*; a later lookup returns the series as created, so it
        keeps its first call's buckets or alpha.
        """
        key = (name, _label_key(labels))
        found = table.get(key)
        if found is None:
            claimed = self._kind_of.setdefault(name, kind)
            if claimed != kind:
                raise TypeError(f"metric {name!r} is a {claimed}, not a {kind}")
            found = table[key] = make(name, *args, labels=key[1])
        return found

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", self._gauges, name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get("histogram", self._histograms, name, labels, Histogram, buckets)

    def sketch(self, name: str, alpha: float = DEFAULT_ALPHA,
               **labels: str) -> QuantileSketch:
        """A mergeable quantile sketch (see :mod:`repro.obs.sketch`)."""
        return self._get("sketch", self._sketches, name, labels, QuantileSketch, alpha)

    # -- reading back --------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Every instrument as one sorted list of plain dicts.

        The list is sorted by (kind, name, labels) so equal registries
        serialize identically regardless of creation order.
        """
        at = self.now
        rows: list[dict] = []
        for (name, labels), c in self._counters.items():
            rows.append({"kind": "counter", "name": name, "labels": dict(labels),
                         "value": c.value, "at": at})
        for (name, labels), g in self._gauges.items():
            rows.append({"kind": "gauge", "name": name, "labels": dict(labels),
                         "value": g.value, "at": at})
        for (name, labels), h in self._histograms.items():
            rows.append({
                "kind": "histogram", "name": name, "labels": dict(labels),
                "buckets": list(h.buckets), "bucket_counts": list(h.bucket_counts),
                "count": h.count, "sum": h.sum, "min": h.min, "max": h.max,
                "at": at,
            })
        for (name, labels), s in self._sketches.items():
            row = s.snapshot()
            row.update({"kind": "sketch", "at": at})
            rows.append(row)
        rows.sort(key=lambda r: (r["kind"], r["name"], sorted(r["labels"].items())))
        return rows

