"""Adversary framework: a hook that sits on the wire.

An :class:`Adversary` registered with a network sees every envelope
whose (src, dst) pair it claims to be "in position" for, *before* the
channel dice are rolled.  It can:

* forward the envelope unchanged (:meth:`forward`),
* modify it (construct a new envelope and forward that),
* drop it (do nothing),
* stash it for later replay (:meth:`replay_later` / ``network.inject``),
* originate entirely new envelopes.

Concrete attacks in :mod:`repro.attacks` subclass this.  The base class
also keeps counters so experiments can report how much traffic each
attack saw/altered.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from .network import Envelope, Network

__all__ = ["Adversary", "PassiveEavesdropper"]


class Adversary:
    """Base wire-level adversary.

    :param positions: set of (src, dst) pairs to intercept, or None to
        intercept everything.
    """

    def __init__(self, name: str = "mallory", positions: set[tuple[str, str]] | None = None) -> None:
        self.name = name
        self.positions = positions
        self._network: "Network | None" = None
        self.seen: list["Envelope"] = []
        self.forwarded = 0
        self.modified = 0
        self.dropped = 0
        self.injected = 0

    # -- wiring ----------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise NetworkError(f"adversary {self.name!r} not installed on a network")
        return self._network

    def in_position(self, envelope: "Envelope") -> bool:
        """True when this adversary intercepts the given flow."""
        if self.positions is None:
            return True
        return (envelope.src, envelope.dst) in self.positions

    # -- interception ------------------------------------------------------------

    def on_intercept(self, envelope: "Envelope") -> None:
        """Default policy: observe and forward unchanged."""
        self.seen.append(envelope)
        self.forward(envelope)

    # -- actions -------------------------------------------------------------------

    def forward(self, envelope: "Envelope") -> None:
        """Put an envelope (back) on the wire toward its destination."""
        self.forwarded += 1
        self.network.inject(envelope, mark="inject")

    def forward_modified(self, envelope: "Envelope", **changes: Any) -> "Envelope":
        """Alter envelope fields (payload, dst, ...) and forward."""
        altered = replace(envelope, **changes)
        self.modified += 1
        self.network.inject(altered, mark="inject")
        return altered

    def drop(self, envelope: "Envelope") -> None:
        """Swallow the envelope (book-keeping only)."""
        self.dropped += 1

    def replay_later(self, envelope: "Envelope", delay: float) -> None:
        """Re-inject a verbatim copy after *delay* seconds."""
        self.injected += 1
        self.network.sim.schedule(delay, lambda: self.network.inject(envelope, mark="inject"))


class PassiveEavesdropper(Adversary):
    """Records everything, changes nothing — the SSL threat model's
    baseline adversary, useful for asserting what crosses the wire."""

    def on_intercept(self, envelope: "Envelope") -> None:
        self.seen.append(envelope)
        self.forward(envelope)
