"""Channel models: latency, jitter, loss, duplication, corruption.

A :class:`ChannelSpec` describes one direction of a link between two
nodes.  :meth:`ChannelSpec.sample` rolls the link's dice and returns
what happens to one message: the list of delivery delays (empty =
dropped, two entries = duplicated) and whether the payload is
corrupted in flight.

One send costs one DRBG block: a single ``generate(32)`` from the
link's stream, split into four 53-bit lanes (drop, jitter, corrupt,
duplicate).  A duplicated copy takes a second block for its own jitter
and corruption.  A spec with no dice (:attr:`ChannelSpec.draws` false:
no jitter and every probability 0, e.g. :data:`PERFECT` or a
fixed-delay or bandwidth-only link) draws nothing at all.

Bandwidth is modelled as a serialization delay proportional to message
size, which is what makes the "protocol time vs shipping time"
experiment (DESIGN.md S6) meaningful.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..crypto.drbg import HmacDrbg
from ..errors import NetworkError

__all__ = ["ChannelSpec", "Delivery", "PERFECT", "WAN", "LOSSY"]

#: One DRBG block: four big-endian 64-bit words, one per lane.
_BLOCK = struct.Struct(">4Q")
_BLOCK_BYTES = _BLOCK.size
#: The top 53 bits of a word, scaled into [0, 1) like ``HmacDrbg.random``.
_LANE_SCALE = 1.0 / (1 << 53)
_INF = float("inf")


def _lanes(rng: HmacDrbg) -> tuple[float, float, float, float]:
    """One block of dice: ``(drop, jitter, corrupt, duplicate)`` in [0, 1)."""
    drop, jitter, corrupt, duplicate = _BLOCK.unpack(rng.generate(_BLOCK_BYTES))
    return (
        (drop >> 11) * _LANE_SCALE,
        (jitter >> 11) * _LANE_SCALE,
        (corrupt >> 11) * _LANE_SCALE,
        (duplicate >> 11) * _LANE_SCALE,
    )


@dataclass(frozen=True)
class Delivery:
    """Outcome for one copy of a message: arrival delay + corruption."""

    delay: float
    corrupted: bool


@dataclass(frozen=True)
class ChannelSpec:
    """One-way link characteristics.

    :param base_latency: fixed propagation delay in seconds.
    :param jitter: maximum extra uniform random delay in seconds.
    :param bandwidth_bps: serialization rate in bytes/second
        (``float("inf")`` disables size-dependent delay).
    :param drop_prob: probability a message copy is silently lost.
    :param duplicate_prob: probability the message arrives twice.
    :param corrupt_prob: probability a delivered copy is bit-flipped.
    """

    base_latency: float = 0.02
    jitter: float = 0.0
    bandwidth_bps: float = float("inf")
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        # Chained comparisons are false for NaN, so NaN is rejected too.
        if not (0.0 <= self.base_latency < _INF and 0.0 <= self.jitter < _INF):
            raise NetworkError("latency parameters must be finite and non-negative")
        if not self.bandwidth_bps > 0:
            raise NetworkError("bandwidth must be positive (inf: no serialization delay)")
        for name in ("drop_prob", "duplicate_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise NetworkError(f"{name} must be a probability, got {p}")

    @property
    def draws(self) -> bool:
        """Whether sampling this spec rolls any dice at all."""
        return bool(self.jitter or self.drop_prob or self.duplicate_prob or self.corrupt_prob)

    def one_way_delay(self, size_bytes: int, jitter_lane: float = 0.0) -> float:
        """Latency + jitter + serialization delay for *size_bytes*.

        *jitter_lane* is the uniform [0, 1) draw that scales ``jitter``.
        """
        delay = self.base_latency
        if self.jitter:
            delay += jitter_lane * self.jitter
        if self.bandwidth_bps != _INF:
            delay += size_bytes / self.bandwidth_bps
        return delay

    def sample(self, size_bytes: int, rng: HmacDrbg | None) -> list[Delivery]:
        """Roll the channel dice for one message.

        Returns zero, one, or two :class:`Delivery` outcomes.  Takes one
        ``generate`` block from *rng* per send (two when duplicated); a
        spec that :attr:`draws` nothing never touches *rng*, which may
        then be ``None``.
        """
        if not self.draws:
            return [Delivery(delay=self.one_way_delay(size_bytes), corrupted=False)]
        drop, jitter, corrupt, duplicate = _lanes(rng)
        if drop < self.drop_prob:
            return []
        deliveries = [
            Delivery(
                delay=self.one_way_delay(size_bytes, jitter),
                corrupted=corrupt < self.corrupt_prob,
            )
        ]
        if duplicate < self.duplicate_prob:
            _, jitter, corrupt, _ = _lanes(rng)
            deliveries.append(
                Delivery(
                    delay=self.one_way_delay(size_bytes, jitter),
                    corrupted=corrupt < self.corrupt_prob,
                )
            )
        return deliveries


#: Zero-latency, lossless channel — unit-test default.
PERFECT = ChannelSpec(base_latency=0.0)

#: A WAN-ish channel: 40 ms one-way, 10 ms jitter, 12.5 MB/s (100 Mbit).
WAN = ChannelSpec(base_latency=0.040, jitter=0.010, bandwidth_bps=12.5e6)

#: An unreliable channel for failure-injection tests.
LOSSY = ChannelSpec(base_latency=0.040, jitter=0.020, drop_prob=0.1, duplicate_prob=0.05)
