"""Host-speed normalisation of wall-clock timings.

The benchmark runs on shared machines whose CPU throughput drifts by
10-70% over seconds to minutes as neighbours come and go, and that
drift is the same for every seed and every commit.  :class:`HostSpeed`
measures it while the benchmark runs: a ``SIGALRM`` timer interrupts
the main thread every :data:`PERIOD_S` and times :func:`probe`, a fixed
~1.2 ms mix of the work the workloads do (big-integer ``pow``, SHA-256,
small numpy array ops, JSON encoding, bytecode loops, and copies of a
buffer larger than the L2 cache, since memory-bound work slows the most
when neighbours share the machine).  A timed
interval is then reported as::

    (wall time - probe time inside it) * PROBE_NOMINAL_S / probe time nearby

where "probe time nearby" is the harmonic mean of the probes within
:data:`WINDOW_S` of the interval: wall time with the probes taken out,
at the host speed at which :func:`probe` takes :data:`PROBE_NOMINAL_S`
(its time on a quiet 2-vCPU Xeon VM at 2.1 GHz).  The probe is part of
the benchmark, not of the measured program, so a faster program still
reads faster.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
from bisect import bisect_left
from itertools import accumulate
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
#: probe() inside a run on the reference host when nothing else runs on it.
PROBE_NOMINAL_S = 0.0013
#: Probes within this distance of an interval set its host speed.
WINDOW_S = 0.25

_rng = random.Random(0)
_MODULUS = _rng.getrandbits(256) | (1 << 255) | 1
_EXPONENT = _rng.getrandbits(255)
_BASE = _rng.getrandbits(250)
_BLOCK = _rng.randbytes(16384)
_SMALL = _rng.randbytes(64)
_WORDS = np.frombuffer(_rng.randbytes(256 * 16 * 4), dtype=np.uint32).reshape(256, 16)
_DOC = {"blob": _rng.randbytes(8192).hex(), "n": list(range(200))}
_BULK = _rng.randbytes(256 * 1024)  # larger than L2: memory-bound copies


def probe() -> int:
    """A fixed unit of mixed work; only its duration matters."""
    for _ in range(3):
        pow(_BASE, _EXPONENT, _MODULUS)
    for _ in range(4):
        hashlib.sha256(_BLOCK).digest()
    for _ in range(100):
        hashlib.sha256(_SMALL).digest()
    words = _WORDS
    for _ in range(25):
        words = (words ^ (words << 7)) + (words >> 3)
    json.dumps(_DOC, sort_keys=True).encode()
    _BULK.hex()
    bytearray(_BULK)[::2]
    x = 0
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


class HostSpeed:
    """Probe the host from ``SIGALRM`` while entered; convert intervals."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._probing = False

    def _on_alarm(self, _signum, _frame) -> None:
        if self._probing:  # an alarm that lands inside a slow probe
            return
        self._probing = True
        started = perf_counter()
        probe()
        self.starts.append(started)
        self.durations.append(perf_counter() - started)
        self._probing = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cumulative = [0.0, *accumulate(self.durations)]
        self._inverse_cumulative = [0.0, *accumulate(1 / d for d in self.durations)]

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown against nominal around ``[start, end]``.

        Work done in a span is its wall time over the slowdown, averaged
        over wall time, so the probes (taken at even wall-time steps)
        are combined by their harmonic mean.
        """
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_left(self.starts, end + WINDOW_S)
        if lo == hi:  # no probe landed nearby: take the nearest one
            lo, hi = max(0, lo - 1), min(len(self.starts), lo + 1)
        inverse = self._inverse_cumulative[hi] - self._inverse_cumulative[lo]
        return (hi - lo) / inverse / PROBE_NOMINAL_S

    def seconds(self, start: float, end: float) -> float:
        """Nominal-speed duration of ``[start, end]``, probes removed."""
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        probing = self._cumulative[last] - self._cumulative[first]
        return (end - start - probing) / self.slowdown(start, end)
