"""Network substrate: deterministic discrete-event simulation.

Provides the simulated Internet the paper's protocols run over — a
clock, an event heap, lossy/latent channels, named nodes, wire traces,
adversary interception hooks, and a miniature TLS (the paper's SSL
stand-in).
"""

from . import adversary, channel, events, faults, network, node, securechannel, simclock, trace
from .adversary import Adversary, PassiveEavesdropper
from .channel import LOSSY, PERFECT, WAN, ChannelSpec, Delivery
from .events import ScheduledEvent, Simulator
from .faults import (
    CampaignOutcome,
    CampaignReport,
    CampaignRunner,
    CrashWindow,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    generate_plans,
)
from .network import Envelope, Network, wire_size
from .node import Node
from .securechannel import (
    ClientEndpoint,
    ClientHello,
    Finished,
    Record,
    SecureSession,
    ServerEndpoint,
    ServerHello,
    establish_session,
)
from .simclock import SimClock
from .trace import TraceEvent, TraceRecorder

__all__ = [
    "adversary",
    "channel",
    "events",
    "faults",
    "network",
    "node",
    "securechannel",
    "simclock",
    "trace",
    "Adversary",
    "PassiveEavesdropper",
    "LOSSY",
    "PERFECT",
    "WAN",
    "ChannelSpec",
    "Delivery",
    "ScheduledEvent",
    "Simulator",
    "Envelope",
    "Network",
    "wire_size",
    "Node",
    "ClientEndpoint",
    "ClientHello",
    "Finished",
    "Record",
    "SecureSession",
    "ServerEndpoint",
    "ServerHello",
    "establish_session",
    "SimClock",
    "TraceEvent",
    "TraceRecorder",
    "FaultAction",
    "FaultRule",
    "CrashWindow",
    "FaultPlan",
    "FaultInjector",
    "generate_plans",
    "CampaignOutcome",
    "CampaignReport",
    "CampaignRunner",
]
