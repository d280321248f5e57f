"""Metrics extracted from simulation traces.

The quantities the paper reasons about qualitatively: protocol *steps*
(messages sent), bytes on the wire, which roles took part, and
end-to-end latency.  Everything here is derived from
:class:`repro.net.trace.TraceRecorder` events, so any protocol run on
the simulated network can be measured the same way.

TTP attribution is derived from the deployment, not from party names:
any node whose class declares ``is_ttp = True`` (the TPNR
:class:`~repro.core.ttp.TrustedThirdParty`, the baseline
:class:`~repro.baselines.zhou_gollmann.ZgOnlineTtp`) counts as a
trusted third party, whatever it happens to be called.  Pass the
:class:`~repro.net.network.Network` to :func:`measure` to use this;
the legacy name tuple remains only for bare traces with no network
attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.trace import TraceRecorder

__all__ = ["ProtocolCost", "infer_ttp_names", "measure", "compare"]


@dataclass(frozen=True)
class ProtocolCost:
    """The cost profile of one protocol run."""

    label: str
    steps: int
    bytes_on_wire: int
    latency: float
    participants: int
    ttp_messages: int

    @property
    def uses_ttp(self) -> bool:
        return self.ttp_messages > 0


def infer_ttp_names(network) -> tuple[str, ...]:
    """Names of every node on *network* whose class declares itself a
    trusted third party (``is_ttp = True``)."""
    return tuple(
        name
        for name in network.node_names()
        if getattr(network.node(name), "is_ttp", False)
    )


def measure(
    trace: TraceRecorder,
    label: str,
    kind_prefix: str = "",
    *,
    network,
) -> ProtocolCost:
    """Summarize a trace into a :class:`ProtocolCost`.

    TTP roles are the *network*'s ``is_ttp`` nodes.
    """
    ttp_names = infer_ttp_names(network)
    sends = trace.sends(kind_prefix)
    ttp_messages = sum(1 for e in sends if e.src in ttp_names or e.dst in ttp_names)
    return ProtocolCost(
        label=label,
        steps=len(sends),
        bytes_on_wire=sum(e.size_bytes for e in sends),
        latency=trace.span(),
        participants=len({e.src for e in sends} | {e.dst for e in sends}),
        ttp_messages=ttp_messages,
    )


def compare(a: ProtocolCost, b: ProtocolCost) -> dict[str, float]:
    """Ratios b/a for the headline columns (guarding zero divisions)."""

    def ratio(x: float, y: float) -> float:
        return y / x if x else float("inf")

    return {
        "steps": ratio(a.steps, b.steps),
        "bytes": ratio(a.bytes_on_wire, b.bytes_on_wire),
        "latency": ratio(a.latency, b.latency),
    }
