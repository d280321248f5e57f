"""Crypto hot-path instrumentation.

:class:`CryptoObserver` counts RSA sign/verify, AEAD seal/open, Merkle
build/prove/verify, and batch-seal calls into one metrics series,
``crypto.calls`` (labelled by op).  Counts are deterministic per seed;
the package measures no wall time — per-op CPU cost comes from the
repository benchmark (``python3 -m bench --trace 1``).

A profiled pool reads these counts over its drive phase into its
``{path: calls}`` table, one ``engine/drive;crypto/<op>`` row per op
the drive called.

The observer is installed into the process-wide seat
:data:`repro.crypto.instrument.observer` (a leaf module the crypto code
checks with one ``is None`` test).  Because the seat is global, use the
:func:`observe_crypto` context manager to scope it to one run; nesting
restores the previous observer on exit.
"""

from __future__ import annotations

import contextlib

from .metrics import Counter, MetricsRegistry

__all__ = ["CryptoObserver", "observe_crypto", "CRYPTO_OPS"]

# The instrumented operations, as reported by the hot paths.
CRYPTO_OPS = (
    "rsa.sign",
    "rsa.verify",
    "aead.seal",
    "aead.open",
    "merkle.build",
    "merkle.prove",
    "merkle.verify",
    "batch.seal",
)


class CryptoObserver:
    """Accumulates crypto call counts into a registry."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        # op -> its crypto.calls series, for the ops seen so far.
        self.series: dict[str, Counter] = {}

    def crypto_call(self, op: str) -> None:
        counter = self.series.get(op)
        if counter is None:
            counter = self.series[op] = self.metrics.counter("crypto.calls", op=op)
        counter.inc()

    def calls(self, op: str) -> float:
        """Calls of *op* so far; reading an op never called adds no
        series."""
        counter = self.series.get(op)
        return 0.0 if counter is None else counter.value


@contextlib.contextmanager
def observe_crypto(metrics: MetricsRegistry):
    """Install a :class:`CryptoObserver` for the duration of a block."""
    from ..crypto import instrument as seat  # lazy: keep obs a leaf at import time

    observer = CryptoObserver(metrics)
    previous = seat.observer
    seat.set_observer(observer)
    try:
        yield observer
    finally:
        seat.set_observer(previous)
