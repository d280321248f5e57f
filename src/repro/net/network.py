"""The simulated network: nodes, links, delivery, adversary hooks.

A :class:`Network` owns the :class:`repro.net.events.Simulator`, a
registry of :class:`repro.net.node.Node` objects, the
:class:`repro.net.channel.ChannelSpec` every link shares, a
:class:`repro.net.trace.TraceRecorder`, and at most one
:class:`repro.net.adversary.Adversary`.

Sending is asynchronous: ``network.send(...)`` samples the channel and
schedules ``dst.on_message(envelope)`` callbacks.  The adversary, when
present and in position, sees every envelope first and decides what
actually reaches the wire — this is how MITM/replay/etc. are staged.

Channel dice come from one named stream per directed link,
``HmacDrbg(link_seed, personalization=b"net/<src>-><dst>")``, created
on the link's first drawing send (PT-002 rules 4-5: named subsystem
streams, and draws on one link never perturb another's).  So a
session's delays, drops and duplicates depend only on its own links'
send order, never on what other sessions send.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..crypto.drbg import HmacDrbg
from ..errors import DeliveryError
from ..obs import NULL_OBS
from .channel import PERFECT, ChannelSpec
from .events import Simulator
from .trace import TraceEvent, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from .adversary import Adversary
    from .node import Node

__all__ = ["Envelope", "Network", "wire_size"]


def wire_size(payload: Any) -> int:
    """Estimate the on-wire size of a payload in bytes.

    Bytes-likes are exact (``memoryview`` by ``nbytes``, so a sliced
    view of a wide buffer is billed for its bytes, not its element
    count); ``str`` is billed as its UTF-8 encoding — not ``repr``,
    which would charge for quote characters and count non-ASCII text
    in code points; objects exposing ``wire_size()`` (all protocol
    messages do) are asked; anything else falls back to ``len(repr)``.
    """
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, memoryview):
        return payload.nbytes
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    size_fn = getattr(payload, "wire_size", None)
    if callable(size_fn):
        return int(size_fn())
    return len(repr(payload))


@dataclass(frozen=True)
class Envelope:
    """A message in flight."""

    msg_id: int
    src: str
    dst: str
    kind: str
    payload: Any
    size_bytes: int
    sent_at: float
    corrupted: bool = False


class Network:
    """Topology + delivery engine + trace + adversary seat."""

    def __init__(self, sim: Simulator, rng: HmacDrbg, default_channel: ChannelSpec = PERFECT) -> None:
        self.sim = sim
        # One block off *rng* (what a fork costs it), however many
        # links later draw; every per-link stream keys off it.
        self._link_seed = rng.generate(32)
        self._link_rngs: dict[tuple[str, str], HmacDrbg] = {}
        self._nodes: dict[str, "Node"] = {}
        self._channel = default_channel
        self.trace = TraceRecorder()
        self.adversary: "Adversary | None" = None
        self._msg_ids = itertools.count(1)
        # The world's transaction numbers: ids its clients allocate
        # are unique among them (they may share a provider) and do not
        # depend on what else ran in the process.
        self.transaction_ids = itertools.count(1)
        # The observability seat: NULL_OBS (the switch, off) unless a
        # deployment built with observe=True installs a live
        # repro.obs.Observability (a SessionPool world never does).
        # Nodes reach it via ``self.obs``.
        self.obs = NULL_OBS

    # -- topology ------------------------------------------------------------

    def add_node(self, node: "Node") -> None:
        if node.name in self._nodes:
            raise DeliveryError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        node.attach(self)

    def node(self, name: str) -> "Node":
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise DeliveryError(f"unknown node {name!r}") from exc

    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def _link_rng(self, src: str, dst: str) -> HmacDrbg:
        """The named dice stream of the directed link *src* -> *dst*."""
        rng = self._link_rngs.get((src, dst))
        if rng is None:
            rng = self._link_rngs[(src, dst)] = HmacDrbg(
                self._link_seed, personalization=f"net/{src}->{dst}".encode("utf-8")
            )
        return rng

    def install_adversary(self, adversary: "Adversary") -> None:
        self.adversary = adversary
        adversary.attach(self)

    def remove_adversary(self) -> None:
        self.adversary = None

    # -- sending -------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any) -> Envelope:
        """Send *payload* from *src* to *dst*; returns the envelope.

        Delivery (or loss) happens later, via scheduled events.
        """
        if dst not in self._nodes:
            raise DeliveryError(f"unknown destination {dst!r}")
        envelope = Envelope(
            msg_id=next(self._msg_ids),
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            size_bytes=wire_size(payload),
            sent_at=self.sim.now,
        )
        self.trace.record(
            TraceEvent(self.sim.now, "send", src, dst, kind, envelope.size_bytes, envelope.msg_id)
        )
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("net.messages_sent", kind=kind).inc()
            obs.metrics.counter("net.bytes_sent", kind=kind).inc(envelope.size_bytes)
        if self.adversary is not None and self.adversary.in_position(envelope):
            self.adversary.on_intercept(envelope)
            return envelope
        self._transmit(envelope)
        return envelope

    def _transmit(self, envelope: Envelope) -> None:
        """Run the channel dice and schedule deliveries."""
        spec = self._channel
        rng = self._link_rng(envelope.src, envelope.dst) if spec.draws else None
        deliveries = spec.sample(envelope.size_bytes, rng)
        if not deliveries:
            self.trace.record(
                TraceEvent(
                    self.sim.now, "drop", envelope.src, envelope.dst,
                    envelope.kind, envelope.size_bytes, envelope.msg_id,
                    note=f"channel drop_prob={spec.drop_prob}",
                )
            )
            obs = self.obs
            if obs.enabled:
                obs.metrics.counter("net.dropped", reason="channel").inc()
            return
        for delivery in deliveries:
            # Envelopes are frozen: an intact copy is the sent envelope.
            delivered = envelope
            if delivery.corrupted and not envelope.corrupted:
                delivered = replace(envelope, corrupted=True)
            self.sim.schedule(delivery.delay, lambda env=delivered: self._deliver(env))

    def _deliver(self, envelope: Envelope) -> None:
        node = self._nodes.get(envelope.dst)
        if node is None:  # node removed mid-flight
            return
        if getattr(node, "crashed", False):
            # An amnesia-crashed process cannot accept deliveries; the
            # bytes hit a dead socket.  Traced as a drop so the
            # campaign's per-message accounting still balances.
            self.trace.record(
                TraceEvent(
                    self.sim.now, "drop", envelope.src, envelope.dst,
                    envelope.kind, envelope.size_bytes, envelope.msg_id,
                    note="destination down (crashed)",
                )
            )
            obs = self.obs
            if obs.enabled:
                obs.metrics.counter("net.dropped", reason="crashed").inc()
            return
        action = "corrupt" if envelope.corrupted else "deliver"
        self.trace.record(
            TraceEvent(
                self.sim.now, action, envelope.src, envelope.dst,
                envelope.kind, envelope.size_bytes, envelope.msg_id,
            )
        )
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("net.delivered", kind=envelope.kind).inc()
            obs.metrics.histogram("net.delivery_latency_seconds").observe(
                self.sim.now - envelope.sent_at
            )
        node.on_message(envelope)

    # -- adversary API ---------------------------------------------------------

    def inject(self, envelope: Envelope, *, mark: str = "inject", note: str = "") -> None:
        """Adversary-originated (re)transmission of an envelope.

        Bypasses the adversary hook (no self-interception) and records
        an ``inject`` trace event before normal channel treatment.
        """
        self.trace.record(
            TraceEvent(
                self.sim.now, mark, envelope.src, envelope.dst,
                envelope.kind, envelope.size_bytes, envelope.msg_id, note,
            )
        )
        self._transmit(envelope)

    def record_fault(self, envelope: Envelope, action: str, note: str) -> None:
        """Record a fault-injection decision against *envelope*.

        *action* is ``fault.<what>`` (drop/duplicate/delay/...), *note*
        names the plan and rule that fired — together they make every
        injected fault attributable from the trace alone.
        """
        self.trace.record(
            TraceEvent(
                self.sim.now, action, envelope.src, envelope.dst,
                envelope.kind, envelope.size_bytes, envelope.msg_id, note,
            )
        )
