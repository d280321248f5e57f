"""Base class for simulated network participants.

Protocol roles (Alice, Bob, the TTP, attackers' sock puppets) subclass
:class:`Node` and implement :meth:`on_message`.  Nodes send through
their attached network and schedule their own timeouts through the
shared simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from .events import ScheduledEvent
    from .network import Envelope, Network

__all__ = ["Node"]


class Node:
    """A named participant attached to a :class:`Network`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._network: "Network | None" = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        if self._network is not None:
            raise NetworkError(f"node {self.name!r} already attached")
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise NetworkError(f"node {self.name!r} is not attached to a network")
        return self._network

    @property
    def now(self) -> float:
        return self.network.sim.now

    @property
    def obs(self):
        """The network's observability seat (:data:`repro.obs.NULL_OBS`
        when observation is off)."""
        return self.network.obs

    # -- I/O --------------------------------------------------------------------

    def send(self, dst: str, kind: str, payload: Any) -> "Envelope":
        """Send *payload* to node *dst* with a trace label *kind*."""
        return self.network.send(self.name, dst, kind, payload)

    def set_timeout(self, delay: float, callback: Callable[[], None]) -> "ScheduledEvent":
        """Schedule *callback* after *delay* simulated seconds."""
        return self.network.sim.schedule(delay, callback)

    def on_message(self, envelope: "Envelope") -> None:
        """Handle a delivered message.  Subclasses must override."""
        raise NotImplementedError(f"{type(self).__name__} does not handle messages")
