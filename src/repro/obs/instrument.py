"""Crypto hot-path instrumentation.

:class:`CryptoObserver` counts RSA sign/verify, AEAD seal/open, Merkle
build/prove/verify, and batch-seal calls into one metrics series,
``crypto.calls`` (labelled by op).  Counts are deterministic per seed;
the package measures no wall time — per-op CPU cost comes from the
repository benchmark (``python3 -m bench --trace 1``).

When a :class:`~repro.obs.profiler.RegionProfiler` is attached, each
call is also recorded as a ``crypto/<op>`` leaf under whatever region
is open — the one feed, so profiler regions and metric series never
double-count a call.

The observer is installed into the process-wide seat
:data:`repro.crypto.instrument.observer` (a leaf module the crypto code
checks with one ``is None`` test).  Because the seat is global, use the
:func:`observe_crypto` context manager to scope it to one run; nesting
restores the previous observer on exit.
"""

from __future__ import annotations

import contextlib

from .metrics import MetricsRegistry

__all__ = ["CryptoObserver", "observe_crypto", "CRYPTO_OPS", "COMPOSITE_OPS"]

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

#: Ops that *contain* other instrumented ops (``batch.seal`` wraps
#: ``merkle.build``/``merkle.prove``/``rsa.sign``).  They keep their
#: metric series but are not forwarded as profiler leaves — the inner
#: ops already are, and forwarding both would attribute the same work
#: twice in the region tree.
COMPOSITE_OPS = frozenset({"batch.seal"})


class CryptoObserver:
    """Accumulates crypto call counts into a registry."""

    def __init__(self, metrics: MetricsRegistry, profiler=None) -> None:
        self.metrics = metrics
        self.profiler = profiler

    def crypto_call(self, op: str) -> None:
        self.metrics.counter("crypto.calls", op=op).inc()
        if self.profiler is not None and op not in COMPOSITE_OPS:
            self.profiler.record_leaf("crypto/" + op)

    def calls(self, op: str) -> float:
        return self.metrics.counter("crypto.calls", op=op).value


@contextlib.contextmanager
def observe_crypto(metrics: MetricsRegistry, profiler=None):
    """Install a :class:`CryptoObserver` for the duration of a block."""
    from ..crypto import instrument as seat  # lazy: keep obs a leaf at import time

    observer = CryptoObserver(metrics, profiler=profiler)
    previous = seat.observer
    seat.set_observer(observer)
    try:
        yield observer
    finally:
        seat.set_observer(previous)
