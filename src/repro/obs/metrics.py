"""The metrics registry: counters, gauges, quantile sketches, and
export-only fixed-bucket histograms.

Zero-dependency and deterministic: instruments are identified by
``(name, sorted labels)``, values are plain Python numbers, and every
snapshot is stamped with the **simulated** clock (the registry is given
a ``clock`` callable, normally ``lambda: sim.now``), so two runs with
the same seed produce byte-identical snapshots.  A lookup first probes
a call-site memo keyed by the labels *as passed*, so a hot call site
sorts and stringifies its labels once, not per call.  No series holds
wall time: the package never reads a real clock (the repository
benchmark, ``python3 -m bench``, is where CPU cost is measured).

Off-by-default-cheap: code that *might* be observed holds a registry
reference that is either a live :class:`MetricsRegistry` or the shared
:data:`NULL_METRICS`.  The null registry's ``enabled`` is ``False`` and
all its instruments are shared no-ops, so the disabled hot path costs
one attribute load and one branch and holds no series (the OB1
experiment checks it).
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
    "NullMetricsRegistry",
    "NULL_METRICS",
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

    enabled = True

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
        # The call-site memo: (kind, name, *label items as passed) ->
        # instrument, so a hot call site resolves its series once.
        self._bound: dict[tuple, object] = {}

    @property
    def now(self) -> float:
        return self._clock()

    # -- instruments ---------------------------------------------------------

    def _claim_kind(self, name: str, kind: str) -> None:
        claimed = self._kind_of.setdefault(name, kind)
        if claimed != kind:
            raise TypeError(f"metric {name!r} is a {claimed}, not a {kind}")

    def _bind(self, key: tuple, table: dict, labels: dict, make):
        """The canonical lookup behind a call-site memo miss.

        *key* is ``(kind, name, *label items as passed)``.  The
        instrument itself is found (or created, claiming the name's
        kind) under its canonical ``(name, sorted str labels)`` key, so
        every label order and spelling of one series reaches one
        object.  Only all-``str`` label sets are memoized: ``1``,
        ``1.0`` and ``True`` compare equal but stringify differently,
        so a non-str value must take the canonical path every time.
        """
        kind, name = key[0], key[1]
        canon = (name, _label_key(labels))
        found = table.get(canon)
        if found is None:
            self._claim_kind(name, kind)
            found = table[canon] = make(name, canon[1])
        if all(type(v) is str for v in labels.values()):
            self._bound[key] = found
        return found

    # A hit costs one tuple and one dict probe; a miss (first call from
    # a label order, a non-str label value, an unhashable one) falls
    # through to _bind.

    def counter(self, name: str, **labels: str) -> Counter:
        key = ("counter", name, *labels.items())
        try:
            return self._bound[key]
        except (KeyError, TypeError):
            return self._bind(key, self._counters, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = ("gauge", name, *labels.items())
        try:
            return self._bound[key]
        except (KeyError, TypeError):
            return self._bind(key, self._gauges, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        # Like the canonical table, the memo ignores *buckets* after the
        # first call: a series keeps the buckets it was created with.
        key = ("histogram", name, *labels.items())
        try:
            return self._bound[key]
        except (KeyError, TypeError):
            return self._bind(key, self._histograms, labels,
                              lambda n, lk: Histogram(n, buckets, lk))

    def sketch(self, name: str, alpha: float = DEFAULT_ALPHA,
               **labels: str) -> QuantileSketch:
        """A mergeable quantile sketch (see :mod:`repro.obs.sketch`)."""
        key = ("sketch", name, *labels.items())
        try:
            return self._bound[key]
        except (KeyError, TypeError):
            return self._bind(key, self._sketches, labels,
                              lambda n, lk: QuantileSketch(n, alpha=alpha, labels=lk))

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


class _NullCounter(Counter):
    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class _NullSketch(QuantileSketch):
    def observe(self, value: float) -> None:
        pass


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every lookup returns a shared no-op.

    Guarded call sites never reach these (``enabled`` is False), but an
    unguarded one still cannot corrupt anything or allocate per call.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null", buckets=(1.0,))
        self._null_sketch = _NullSketch("null")

    def counter(self, name: str, **labels: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS, **labels: str) -> Histogram:
        return self._null_histogram

    def sketch(self, name: str, alpha: float = DEFAULT_ALPHA, **labels: str) -> QuantileSketch:
        return self._null_sketch

    def snapshot(self) -> list[dict]:
        return []


NULL_METRICS = NullMetricsRegistry()
