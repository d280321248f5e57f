"""Message-trace recording.

Every send/deliver/drop on a :class:`repro.net.network.Network` is
recorded here.  The analysis layer turns traces into the quantities the
paper talks about: *steps* (protocol messages exchanged), bytes on the
wire, and end-to-end latency — the basis of the "TPNR takes 2 steps
where traditional NR takes 4" comparison (paper §4.4, DESIGN.md S4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "TraceRecorder", "FaultNote", "parse_fault_note"]


@dataclass(frozen=True)
class TraceEvent:
    """One network-level occurrence.

    ``note`` records *why* the event happened when the cause is not the
    plain happy path: ``"channel"`` for channel-dice drops, and
    ``"plan=<name> rule=<i> action=<a>"`` for fault-injection decisions
    (actions ``fault.drop``/``fault.duplicate``/...), so a dropped
    message is diagnosable from the trace alone.
    """

    time: float
    action: str  # "send" | "deliver" | "drop" | "corrupt" | "inject" | "fault.*"
    src: str
    dst: str
    kind: str  # protocol-level message kind, e.g. "tpnr.data+nro"
    size_bytes: int
    msg_id: int
    note: str = ""


@dataclass
class TraceRecorder:
    """Accumulates :class:`TraceEvent` records and summarizes them."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    # -- summaries ----------------------------------------------------------

    def sends(self, kind_prefix: str = "") -> list[TraceEvent]:
        """All send events whose kind starts with *kind_prefix*."""
        return [e for e in self.events if e.action == "send" and e.kind.startswith(kind_prefix)]

    def faults(self) -> list[TraceEvent]:
        """All fault-injection decisions (actions ``fault.*``)."""
        return [e for e in self.events if e.action.startswith("fault.")]

    def explain(self, msg_id: int) -> list[TraceEvent]:
        """Every recorded event for one message, in order — the full
        fate of the message (sent, then faulted/dropped/delivered),
        which is what makes dropped-message bugs debuggable."""
        return [e for e in self.events if e.msg_id == msg_id]

    def message_count(self, kind_prefix: str = "") -> int:
        """Number of protocol messages sent (the paper's "steps")."""
        return len(self.sends(kind_prefix))

    def span(self) -> float:
        """Simulated time between the first and last event."""
        if not self.events:
            return 0.0
        times = [e.time for e in self.events]
        return max(times) - min(times)

    def sequence(self, action: str = "send") -> list[tuple[str, str, str]]:
        """Ordered (src, dst, kind) triples — compared against the
        figure-6 flows in tests and benchmarks."""
        return [(e.src, e.dst, e.kind) for e in self.events if e.action == action]


# ---------------------------------------------------------------------------
# Structured fault notes
# ---------------------------------------------------------------------------

# The two note shapes the fault injector writes (repro.net.faults):
#   "plan=<name> rule=<i> action=<a>"        — a FaultRule decision
#   "plan=<name> <kind>(<node> @<s>s +<d>s)" — a CrashWindow mark, with
#                                              kind "crash"/"amnesia-crash"
_RULE_NOTE = re.compile(r"^plan=(?P<plan>\S+) rule=(?P<rule>\d+) action=(?P<action>\S+)$")
_WINDOW_NOTE = re.compile(
    r"^plan=(?P<plan>\S+) (?P<kind>amnesia-crash|crash)"
    r"\((?P<node>\S+) @(?P<start>[-+0-9.e]+)s \+(?P<duration>[-+0-9.e]+)s\)$"
)


@dataclass(frozen=True)
class FaultNote:
    """A fault-injection note parsed back into its structured form.

    Rule decisions have ``rule``/``action`` set; crash-window marks
    have ``node``/``start``/``duration`` set with ``action`` holding
    the window kind.
    """

    plan: str
    action: str
    rule: int | None = None
    node: str = ""
    start: float = 0.0
    duration: float = 0.0


def parse_fault_note(note: str) -> FaultNote | None:
    """Parse one fault note; ``None`` if *note* is not a fault note."""
    match = _RULE_NOTE.match(note)
    if match:
        return FaultNote(
            plan=match["plan"],
            action=match["action"],
            rule=int(match["rule"]),
        )
    match = _WINDOW_NOTE.match(note)
    if match:
        return FaultNote(
            plan=match["plan"],
            action=match["kind"],
            node=match["node"],
            start=float(match["start"]),
            duration=float(match["duration"]),
        )
    return None
