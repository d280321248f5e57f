"""Seeded fault injection and campaign running.

The resilience story of the TPNR reproduction so far rested on i.i.d.
channel dice (:class:`repro.net.channel.ChannelSpec`).  Real failure
modes are *targeted*: the Nth receipt is lost, a resolve query is
delivered twice, a party is down for three seconds.  This module turns
those into first-class, seeded, replayable objects:

* :class:`FaultRule` — "apply *action* to the *nth* (and following
  *count-1*) messages matching this kind/src/dst pattern";
* :class:`CrashWindow` — a party is crashed (all traffic to and from
  it is lost) for a time window; the restart itself is implicit in the
  window's end, mirroring a process that reboots with its durable
  state (keys, stores, sequence counters) intact;
* :class:`FaultPlan` — a named bundle of rules + crash windows;
* :class:`FaultInjector` — an :class:`~repro.net.adversary.Adversary`
  that executes a plan and records every decision in the network trace
  (``fault.*`` events carrying ``plan=<name> rule=<i> action=<a>``
  notes), so each injected fault is attributable after the fact;
* :func:`generate_plans` — a deterministic plan generator seeded by an
  :class:`~repro.crypto.drbg.HmacDrbg`;
* :class:`CampaignRunner` — sweeps a list of plans over fresh TPNR
  sessions on one shared deployment, checks the non-repudiation
  invariants after each (terminal state reached, no conflicting
  evidence, every message accounted for in the trace), and emits a
  reproducible outcome table via :mod:`repro.analysis.report`.

Everything here is deterministic given the seed: running the same
campaign twice yields byte-identical outcome tables, which is what
makes a fault-campaign failure a *bug report* instead of an anecdote.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..crypto.drbg import HmacDrbg
from .adversary import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..core.protocol import Deployment
    from .network import Envelope

__all__ = [
    "FaultAction",
    "FaultRule",
    "CrashWindow",
    "ReplicaFaultMode",
    "ReplicaFault",
    "FaultPlan",
    "FaultInjector",
    "generate_plans",
    "generate_amnesia_plans",
    "generate_replica_plans",
    "generate_storm_plans",
    "REPLICA_NAMES",
    "CampaignOutcome",
    "CampaignReport",
    "CampaignRunner",
    "TPNR_KINDS",
]

# Message kinds a fault plan can target (the full TPNR wire surface).
TPNR_KINDS = (
    "tpnr.upload",
    "tpnr.upload.receipt",
    "tpnr.download.request",
    "tpnr.download.response",
    "tpnr.download.ack",
    "tpnr.resolve.request",
    "tpnr.resolve.query",
    "tpnr.resolve.reply",
    "tpnr.resolve.result",
)


class FaultAction(enum.Enum):
    DROP = "drop"
    DUPLICATE = "duplicate"
    DELAY = "delay"
    CORRUPT = "corrupt"
    REORDER = "reorder"


@dataclass(frozen=True)
class FaultRule:
    """Target the *nth* .. *nth+count-1* messages matching a pattern.

    ``kind`` is a prefix match (``"tpnr.upload"`` also matches
    ``"tpnr.upload.receipt"`` — use the exact kind to be precise);
    empty ``src``/``dst`` match any party.  ``delay`` is used by DELAY
    (seconds of hold) and REORDER (a short hold that lets the next
    message overtake).
    """

    action: FaultAction
    kind: str
    src: str = ""
    dst: str = ""
    nth: int = 1
    count: int = 1
    delay: float = 2.0

    def matches(self, envelope: "Envelope") -> bool:
        if not envelope.kind.startswith(self.kind):
            return False
        if self.src and envelope.src != self.src:
            return False
        if self.dst and envelope.dst != self.dst:
            return False
        return True

    def describe(self) -> str:
        where = f"{self.src or '*'}->{self.dst or '*'}"
        span = f"#{self.nth}" if self.count == 1 else f"#{self.nth}-{self.nth + self.count - 1}"
        return f"{self.action.value}({self.kind} {where} {span})"


@dataclass(frozen=True)
class CrashWindow:
    """Party *node* is down over [start, start+duration) seconds,
    relative to the injector's epoch (the moment the plan is armed).
    While down, every message to or from the node is lost, and the
    node's retransmission loops die at window entry — a dead process
    sends nothing, so timers from its pre-crash life must not fire
    mid-window and masquerade as recovery.

    With ``amnesia=False`` (PR 1 semantics) the node restarts with its
    in-memory state magically intact.  With ``amnesia=True`` the crash
    is real: volatile state and every timer are wiped at window entry
    (the journal's write buffer is lost), and
    :func:`repro.durability.recovery.recover` runs at window exit."""

    node: str
    start: float
    duration: float
    amnesia: bool = False

    def covers(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration

    def describe(self) -> str:
        kind = "amnesia-crash" if self.amnesia else "crash"
        return f"{kind}({self.node} @{self.start:g}s +{self.duration:g}s)"


class ReplicaFaultMode(enum.Enum):
    """Fault classes scoped to one replica of a replicated store.

    * ``DIVERGENCE`` — a replica's stored bytes silently change (bad
      disk, or a backend quietly rewriting data) with the platform MD5
      fixed up, so single-backend checks pass;
    * ``SPLIT_BRAIN`` — a replica is partitioned away from the write
      quorum and accepts a divergent minority write of its own;
    * ``LAGGING`` — a replica stops acknowledging writes and serves an
      old (but internally consistent) view;
    * ``BYZANTINE`` — a replica tampers with data *and* forges its
      attestation, the strongest §2.4-style adversary.
    """

    DIVERGENCE = "replica-divergence"
    SPLIT_BRAIN = "split-brain"
    LAGGING = "lagging-replica"
    BYZANTINE = "byzantine-replica"


#: Replica names a replicated deployment fans out to by default.
REPLICA_NAMES = ("s3like", "azurelike", "gaelike")


@dataclass(frozen=True)
class ReplicaFault:
    """Apply *mode* to *replica* just before the *at_op*-th store op."""

    mode: ReplicaFaultMode
    replica: str
    at_op: int = 1
    forge_attestation: bool = False

    def describe(self) -> str:
        forged = "+forged-mac" if self.forge_attestation else ""
        return f"{self.mode.value}({self.replica} @op{self.at_op}{forged})"


@dataclass(frozen=True)
class FaultPlan:
    """A named, self-contained fault scenario."""

    name: str
    rules: tuple[FaultRule, ...] = ()
    crashes: tuple[CrashWindow, ...] = ()
    replica_faults: tuple[ReplicaFault, ...] = ()

    def describe(self) -> str:
        parts = (
            [r.describe() for r in self.rules]
            + [c.describe() for c in self.crashes]
            + [rf.describe() for rf in self.replica_faults]
        )
        return "; ".join(parts) if parts else "no-op"


class FaultInjector(Adversary):
    """Adversary that executes one :class:`FaultPlan`.

    Every decision is written to the network trace as a ``fault.*``
    event whose note names the plan and the rule index that fired —
    the trace alone answers "why did message 17 disappear?".
    """

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__(name=f"faults/{plan.name}", positions=None)
        self.plan = plan
        self.epoch = 0.0
        self._match_counts = [0] * len(plan.rules)
        self.decisions: list[tuple[int, str, str]] = []  # (msg_id, action, note)
        self._window_events: list = []  # ScheduledEvents for crash begin/end
        self.crash_begins = 0
        self.amnesia_crashes = 0
        self.amnesia_nodes: set[str] = set()
        self.recoveries = 0
        self.recovery_reports: list = []  # RecoveryReport per amnesia restart

    def reset(self, epoch: float) -> None:
        """Re-arm the plan (fresh match counters) at a new time origin.

        Each crash window also gets explicit begin/end events: entry
        kills the node's retransmission loops (and, for amnesia
        windows, its volatile state); exit restarts the process —
        running crash recovery when the window is amnesiac.  Requires
        the injector to be installed on the network first.
        """
        self.epoch = epoch
        self._match_counts = [0] * len(self.plan.rules)
        for event in self._window_events:
            event.cancel()
        self._window_events = []
        sim = self.network.sim
        for window in self.plan.crashes:
            self._window_events.append(
                sim.schedule_at(
                    epoch + window.start,
                    lambda w=window: self._crash_begin(w),
                )
            )
            self._window_events.append(
                sim.schedule_at(
                    epoch + window.start + window.duration,
                    lambda w=window: self._crash_end(w),
                )
            )

    def _crashed_node(self, window: CrashWindow):
        try:
            return self.network.node(window.node)
        except Exception:
            return None

    def _mark_window(self, window: CrashWindow, action: str) -> None:
        from .trace import TraceEvent  # local: trace is a leaf module

        note = f"plan={self.plan.name} {window.describe()}"
        self.network.trace.record(
            TraceEvent(
                self.network.sim.now, f"fault.{action}",
                window.node, window.node, "process", 0, 0, note,
            )
        )
        self.decisions.append((0, action, note))

    def _crash_begin(self, window: CrashWindow) -> None:
        node = self._crashed_node(window)
        if node is None:
            return
        self.crash_begins += 1
        self._mark_window(window, "crash-begin")
        if hasattr(node, "cancel_all_retransmits"):
            node.cancel_all_retransmits()
        if window.amnesia and hasattr(node, "begin_crash"):
            self.amnesia_crashes += 1
            self.amnesia_nodes.add(window.node)
            node.begin_crash(amnesia=True)

    def _crash_end(self, window: CrashWindow) -> None:
        node = self._crashed_node(window)
        if node is None:
            return
        self._mark_window(window, "crash-end")
        if window.amnesia and hasattr(node, "begin_crash"):
            from ..durability.recovery import recover  # lazy: net <-> durability

            report = recover(node)
            self.recoveries += 1
            self.recovery_reports.append(report)

    def _record(self, envelope: "Envelope", action: FaultAction | str, note: str) -> None:
        label = action.value if isinstance(action, FaultAction) else action
        self.network.record_fault(envelope, f"fault.{label}", note)
        self.decisions.append((envelope.msg_id, label, note))

    def on_intercept(self, envelope: "Envelope") -> None:
        self.seen.append(envelope)
        rel_now = self.network.sim.now - self.epoch
        for crash in self.plan.crashes:
            if crash.covers(rel_now) and crash.node in (envelope.src, envelope.dst):
                self._record(
                    envelope, "crash", f"plan={self.plan.name} {crash.describe()}"
                )
                self.drop(envelope)
                return
        for i, rule in enumerate(self.plan.rules):
            if not rule.matches(envelope):
                continue
            self._match_counts[i] += 1
            seen_no = self._match_counts[i]
            if not (rule.nth <= seen_no < rule.nth + rule.count):
                continue
            note = f"plan={self.plan.name} rule={i} action={rule.action.value}"
            self._record(envelope, rule.action, note)
            if rule.action is FaultAction.DROP:
                self.drop(envelope)
            elif rule.action is FaultAction.DUPLICATE:
                # The copy carries the same sequence number and nonce:
                # the receiver's §5.3/§5.4 checks must shoot it down.
                self.forward(envelope)
                self.replay_later(envelope, 0.01)
            elif rule.action is FaultAction.DELAY:
                self.replay_later(envelope, rule.delay)
            elif rule.action is FaultAction.CORRUPT:
                self.forward_modified(envelope, corrupted=True)
            else:  # REORDER: hold briefly so the next message overtakes
                self.replay_later(envelope, rule.delay)
            return
        self.forward(envelope)


def generate_plans(seed: bytes | str, n: int) -> list[FaultPlan]:
    """Deterministically generate *n* fault plans from *seed*.

    The mix: mostly single-rule plans across the whole TPNR wire
    surface (every action x kind x occurrence), some two-rule compound
    plans, and roughly one in eight a party crash-and-restart window.
    Same seed, same *n* -> the identical plan list, forever.
    """
    rng = HmacDrbg(seed, personalization=b"fault-plans")
    actions = list(FaultAction)
    parties = ("alice", "bob", "ttp")
    plans: list[FaultPlan] = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.125:
            node = rng.choice(parties)
            # Start at (or near) zero: an undisturbed session is over in
            # milliseconds, so a late window would never see traffic.
            start = rng.choice((0.0, 0.0, 0.1, 0.7))
            # Long windows (past the response time-out) force the
            # survivor down the Resolve path; short ones are absorbed
            # by retransmission alone.
            duration = round(0.5 + rng.random() * 5.0, 3)
            plans.append(
                FaultPlan(
                    name=f"p{i:03d}-crash-{node}",
                    crashes=(CrashWindow(node, start, duration),),
                )
            )
            continue

        def one_rule() -> FaultRule:
            action = rng.choice(actions)
            # Bias toward kinds every Normal-mode session actually
            # sends; resolve-path kinds only appear once a prior fault
            # has forced an escalation.
            kind = (
                rng.choice(TPNR_KINDS[:5])
                if rng.random() < 0.7
                else rng.choice(TPNR_KINDS[5:])
            )
            nth = rng.randint(1, 2)
            # DROP spans may exceed the whole retransmit budget
            # (1 original + max_retransmits) to force escalation.
            count = rng.randint(1, 5) if action is FaultAction.DROP else 1
            delay = (
                rng.choice((1.0, 2.0, 4.0))
                if action is FaultAction.DELAY
                else 0.05
            )
            return FaultRule(action=action, kind=kind, nth=nth, count=count, delay=delay)

        rules = (one_rule(),) if roll < 0.875 else (one_rule(), one_rule())
        tag = "+".join(r.action.value for r in rules)
        plans.append(FaultPlan(name=f"p{i:03d}-{tag}", rules=rules))
    return plans


def generate_amnesia_plans(seed: bytes | str, n: int) -> list[FaultPlan]:
    """Deterministically generate *n* amnesia-crash plans from *seed*.

    Every plan crashes one party with ``amnesia=True`` (volatile state
    wiped, recovery at restart).  About one in five adds a *second*
    crash shortly after the first recovery (double-crash), and about
    one in four pairs the crash with an ordinary message fault so
    recovery runs under degraded networking too.  Same seed, same *n*
    -> the identical plan list, forever.
    """
    rng = HmacDrbg(seed, personalization=b"amnesia-plans")
    parties = ("alice", "bob", "ttp")
    plans: list[FaultPlan] = []
    for i in range(n):
        node = rng.choice(parties)
        # Same timing logic as generate_plans: early windows, because
        # an undisturbed session is over in milliseconds; long windows
        # (past the response time-out) force the survivor to escalate.
        start = rng.choice((0.0, 0.0, 0.1, 0.7))
        duration = round(0.5 + rng.random() * 5.0, 3)
        windows = [CrashWindow(node, start, duration, amnesia=True)]
        tag = node
        if rng.random() < 0.2:
            gap = round(0.2 + rng.random() * 1.0, 3)
            second = round(0.3 + rng.random() * 2.0, 3)
            windows.append(
                CrashWindow(
                    node,
                    round(start + duration + gap, 3),
                    second,
                    amnesia=True,
                )
            )
            tag += "-x2"
        rules: tuple[FaultRule, ...] = ()
        if rng.random() < 0.25:
            action = rng.choice(
                (FaultAction.DROP, FaultAction.DUPLICATE, FaultAction.DELAY)
            )
            kind = rng.choice(TPNR_KINDS[:5])
            rules = (
                FaultRule(action=action, kind=kind, nth=rng.randint(1, 2)),
            )
            tag += f"+{action.value}"
        plans.append(
            FaultPlan(
                name=f"c{i:03d}-amnesia-{tag}",
                rules=rules,
                crashes=tuple(windows),
            )
        )
    return plans


def generate_replica_plans(seed: bytes | str, n: int) -> list[FaultPlan]:
    """Deterministically generate *n* replica-fault plans from *seed*.

    Roughly one in six plans is a clean control (no faults at all —
    the verifier must stay silent on those); the rest inject one
    replica-scoped fault, with about one in eight doubling up two
    faults on distinct replicas (``replica-compound`` in the
    breakdown).  Byzantine plans forge the attestation MAC half the
    time.  Same seed, same *n* -> the identical plan list, forever.
    """
    rng = HmacDrbg(seed, personalization=b"replica-plans")
    modes = list(ReplicaFaultMode)
    plans: list[FaultPlan] = []
    for i in range(n):
        roll = rng.random()
        if roll < 1 / 6:
            plans.append(FaultPlan(name=f"r{i:03d}-clean"))
            continue

        def one_fault(exclude: str | None = None) -> ReplicaFault:
            mode = rng.choice(modes)
            candidates = [r for r in REPLICA_NAMES if r != exclude]
            replica = rng.choice(candidates)
            forged = (
                mode is ReplicaFaultMode.BYZANTINE and rng.random() < 0.5
            )
            return ReplicaFault(
                mode=mode,
                replica=replica,
                at_op=rng.randint(1, 6),
                forge_attestation=forged,
            )

        first = one_fault()
        if roll < 1 / 6 + 1 / 8:
            second = one_fault(exclude=first.replica)
            plans.append(
                FaultPlan(
                    name=f"r{i:03d}-compound",
                    replica_faults=(first, second),
                )
            )
        else:
            plans.append(
                FaultPlan(
                    name=f"r{i:03d}-{first.mode.value}",
                    replica_faults=(first,),
                )
            )
    return plans


def generate_storm_plans(seed: bytes | str, n: int, profile: str = "mixed") -> list[FaultPlan]:
    """Deterministically generate *n* fault-*storm* plans from *seed*.

    The plans of :func:`generate_plans` are surgical (one targeted
    fault, usually masked); storms are what the SLO layer exists to
    catch — a sustained bad patch where most sessions go wrong at
    once, burning the error budget fast enough to page.  Profiles:

    * ``"blackout"`` — drop every TPNR message for the whole session
      (retransmits included), forcing abort/failure verdicts;
    * ``"delay"`` — hold key messages for 12–30 sim-seconds, pushing
      terminal-verdict latency far past the 10 s objective;
    * ``"corrupt"`` — corrupt the first several uploads, forcing
      retransmission storms and Resolve escalations;
    * ``"mixed"`` — a seeded blend of the above.

    Same seed, same *n*, same profile -> the identical plan list.
    """
    rng = HmacDrbg(seed, personalization=b"storm-plans/" + profile.encode())
    kinds = ("blackout", "delay", "corrupt")
    if profile not in kinds + ("mixed",):
        raise ValueError(f"unknown storm profile {profile!r}")
    plans: list[FaultPlan] = []
    for i in range(n):
        kind = profile if profile != "mixed" else rng.choice(kinds)
        if kind == "blackout":
            plans.append(FaultPlan(
                name=f"s{i:03d}-storm-blackout",
                rules=(FaultRule(FaultAction.DROP, "tpnr.", count=64),),
            ))
        elif kind == "delay":
            hold = round(12.0 + rng.random() * 18.0, 3)
            target = rng.choice(
                ("tpnr.upload.receipt", "tpnr.upload", "tpnr.download.response"))
            plans.append(FaultPlan(
                name=f"s{i:03d}-storm-delay",
                rules=(FaultRule(
                    FaultAction.DELAY, target, count=3, delay=hold),),
            ))
        else:
            plans.append(FaultPlan(
                name=f"s{i:03d}-storm-corrupt",
                rules=(FaultRule(FaultAction.CORRUPT, "tpnr.upload", count=8),),
            ))
    return plans


# ---------------------------------------------------------------------------
# Campaign running
# ---------------------------------------------------------------------------

_TERMINAL = frozenset({"completed", "aborted", "resolved", "failed"})


@dataclass
class CampaignOutcome:
    """One plan's end-to-end result plus invariant verdicts."""

    index: int
    plan: FaultPlan
    status: str
    detail: str
    ttp_involved: bool
    steps: int
    faults_fired: int
    retransmits: int
    duplicates_suppressed: int
    download_ok: bool
    crashes: int = 0
    recoveries: int = 0
    resumed: int = 0  # in-flight work re-sent by recovery
    escalated: int = 0  # in-flight work escalated to Resolve/FAILED
    # Telemetry fields for the per-fault-class breakdown; deliberately
    # NOT part of row(), so report signatures stay comparable with PR 1.
    elapsed: float = 0.0  # sim-clock seconds this plan's session took
    wal_replayed: int = 0  # WAL records replayed across its recoveries
    violations: tuple[str, ...] = ()
    # Forensic findings from the ConsistencyAuditor (AuditFinding
    # objects) when the runner was built with forensics=True; also
    # excluded from row() so signatures stay comparable.
    findings: tuple = ()

    @property
    def hung(self) -> bool:
        return self.status not in _TERMINAL

    def row(self) -> tuple:
        return (
            self.index,
            self.plan.name,
            self.plan.describe(),
            self.status,
            self.detail,
            "yes" if self.ttp_involved else "no",
            self.steps,
            self.faults_fired,
            self.retransmits,
            self.duplicates_suppressed,
            "yes" if self.download_ok else "no",
            self.crashes,
            self.recoveries,
            "; ".join(self.violations) if self.violations else "-",
        )


@dataclass
class CampaignReport:
    """All outcomes of one campaign, comparable by signature."""

    seed: str
    outcomes: list[CampaignOutcome] = field(default_factory=list)
    # Alerts emitted during the run: rate shifts (anomaly=True) and SLO
    # burn (slo=True); excluded from signature() like all
    # telemetry-only surfaces.
    alerts: list = field(default_factory=list)
    # End-of-run SLOReport (slo=True); telemetry-only, excluded from
    # signature() like alerts.
    slo: object | None = None

    HEADERS = (
        "#", "plan", "faults", "status", "detail", "ttp",
        "steps", "fired", "retx", "dup-supp", "dl-ok",
        "crash", "recov", "violations",
    )

    @property
    def hung_sessions(self) -> int:
        return sum(1 for o in self.outcomes if o.hung)

    @property
    def violation_count(self) -> int:
        return sum(len(o.violations) for o in self.outcomes)

    def finding_categories(self) -> dict[str, int]:
        """Forensic finding counts by category, across all plans."""
        counts: dict[str, int] = {}
        for o in self.outcomes:
            for f in o.findings:
                counts[f.category] = counts.get(f.category, 0) + 1
        return dict(sorted(counts.items()))

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return dict(sorted(counts.items()))

    def signature(self) -> str:
        """Stable digest of the outcome table — two campaigns with the
        same seed must produce the same signature (transaction IDs are
        process-global and deliberately excluded from rows)."""
        body = "\n".join(repr(o.row()) for o in self.outcomes)
        return hashlib.sha256(body.encode()).hexdigest()


#: Each plan's session uploads a payload of a size drawn from this
#: inclusive range (bytes).
PAYLOAD_RANGE = (64, 512)


class CampaignRunner:
    """Sweep fault plans over TPNR sessions and check invariants.

    One deployment (one PKI, one simulator) is shared across all plans
    — key generation dominates setup cost, and sharing it is also the
    stronger test: residual state from a faulted session must not
    poison the next one.  Each plan gets a fresh transaction, a fresh
    fault injector arming, and a full invariant audit afterwards.  The
    deployment is always observed, so anomaly detection and SLOs can
    be switched on alone.
    """

    def __init__(
        self,
        seed: bytes | str = b"fault-campaign",
        durable: bool = False,
        forensics: bool = False,
        anomaly: bool = False,
        slo: bool = False,
        on_plan=None,
    ) -> None:
        self.seed = seed if isinstance(seed, str) else seed.decode("latin-1")
        self.durable = durable
        self.forensics = forensics
        self.anomaly = anomaly
        self.slo = slo
        # on_plan: optional (index, outcome) callback fired after each
        # plan's audit — the live-dashboard hook; it sees self.slos and
        # self.deployment mid-run.
        self.on_plan = on_plan
        self.slos = None  # the SLOManager, exposed once run() starts
        self.auditor = None  # the ConsistencyAuditor, likewise (forensics only)
        self.deployment = None  # the shared deployment, exposed after run()
        self._rng = HmacDrbg(seed, personalization=b"fault-campaign")

    def run(self, plans: list[FaultPlan]) -> CampaignReport:
        from ..core.protocol import (  # lazy: avoid net <-> core import cycle
            make_deployment,
            run_session,
        )

        dep = make_deployment(
            seed=self.seed.encode("latin-1") + b"/campaign",
            durable=self.durable,
            observe=True,
        )
        self.deployment = dep
        auditor = None
        if self.forensics:
            from ..obs.forensics import ConsistencyAuditor  # lazy: see render()

            # exclusive_trace: the runner clears the trace per plan, so
            # every wire event belongs to the plan under audit.
            auditor = ConsistencyAuditor.for_deployment(dep, exclusive_trace=True)
        self.auditor = auditor
        monitor = None
        if self.anomaly:
            from ..obs.campaign import attach_campaign_detectors  # lazy: see render()

            monitor = attach_campaign_detectors(dep.obs.monitor, dep.obs.metrics)
        slos = None
        if self.slo:
            from ..obs.slo import SLOManager, standard_campaign_slos  # lazy: see render()

            slos = standard_campaign_slos(SLOManager(dep.obs.metrics))
            self.slos = slos
        report = CampaignReport(seed=self.seed)
        lo, hi = PAYLOAD_RANGE
        for index, plan in enumerate(plans):
            payload = self._rng.generate(self._rng.randint(lo, hi))
            injector = FaultInjector(plan)
            dep.network.install_adversary(injector)
            injector.reset(epoch=dep.sim.now)
            started_at = dep.sim.now
            before = self._counters(dep)
            outcome = run_session(dep, payload)
            dep.network.remove_adversary()
            after = self._counters(dep)
            txn = outcome.transaction_id
            violations = self._audit(dep, txn, injector)
            findings = () if auditor is None else tuple(auditor.audit(txn))
            download = outcome.download
            report.outcomes.append(
                CampaignOutcome(
                    index=index,
                    plan=plan,
                    status=outcome.upload_status.value,
                    detail=outcome.upload_detail,
                    ttp_involved=outcome.ttp_involved,
                    steps=outcome.steps,
                    faults_fired=len(dep.network.trace.faults()),
                    retransmits=after[0] - before[0],
                    duplicates_suppressed=after[1] - before[1],
                    download_ok=bool(download and download.verified),
                    crashes=injector.crash_begins,
                    recoveries=injector.recoveries,
                    resumed=sum(r.resumed for r in injector.recovery_reports),
                    escalated=sum(r.escalated for r in injector.recovery_reports),
                    elapsed=dep.sim.now - started_at,
                    wal_replayed=sum(
                        r.records_replayed for r in injector.recovery_reports
                    ),
                    violations=tuple(violations),
                    findings=findings,
                )
            )
            if monitor is not None:
                self._feed_anomaly_metrics(dep, report.outcomes[-1])
                report.alerts.extend(monitor.poll(dep.sim.now))
            if slos is not None:
                self._feed_slo_metrics(dep, report.outcomes[-1])
                report.alerts.extend(slos.poll(dep.sim.now))
            if self.on_plan is not None:
                self.on_plan(index, report.outcomes[-1])
        if slos is not None:
            report.slo = slos.report(dep.sim.now)
        from ..obs.campaign import record_campaign_metrics  # lazy: see render()

        record_campaign_metrics(report, dep.obs.metrics)
        return report

    # -- bookkeeping ---------------------------------------------------------

    @staticmethod
    def _feed_anomaly_metrics(dep: "Deployment", outcome: CampaignOutcome) -> None:
        """Mirror one plan's outcome into the live campaign counters
        the rate-shift detectors window over."""
        metrics = dep.obs.metrics
        metrics.counter("campaign.live.retransmits").inc(outcome.retransmits)
        if outcome.ttp_involved:
            metrics.counter("campaign.live.escalations").inc()

    @staticmethod
    def _feed_slo_metrics(dep: "Deployment", outcome: CampaignOutcome) -> None:
        """Mirror one plan's outcome into the counters/sketches the
        standard campaign SLIs read.  A good *verdict* is a session
        that reached completed/resolved without hanging; *evidence* is
        good when the end-to-end download verified."""
        metrics = dep.obs.metrics
        verdict_ok = outcome.status in ("completed", "resolved") and not outcome.hung
        metrics.counter(
            "campaign.live.verdicts", outcome="ok" if verdict_ok else "bad"
        ).inc()
        metrics.counter(
            "campaign.live.evidence",
            outcome="ok" if outcome.download_ok else "bad",
        ).inc()
        metrics.sketch("campaign.live.latency").observe(outcome.elapsed)

    @staticmethod
    def _counters(dep: "Deployment") -> tuple[int, int]:
        parties = (dep.client, dep.provider, dep.ttp)
        return (
            sum(p.retransmits_sent for p in parties),
            sum(p.evidence_store.duplicates_suppressed for p in parties),
        )

    # -- invariants ----------------------------------------------------------

    def _audit(
        self, dep: "Deployment", txn: str, injector: FaultInjector
    ) -> list[str]:
        violations: list[str] = []
        violations.extend(self._check_terminal(dep, txn))
        violations.extend(self._check_evidence(dep, txn))
        violations.extend(self._check_trace_accounting(dep))
        violations.extend(self._check_durability(dep, injector.amnesia_nodes))
        return violations

    @staticmethod
    def _check_terminal(dep: "Deployment", txn: str) -> list[str]:
        out = []
        record = dep.client.transactions.get(txn)
        if record is None or record.status.value not in _TERMINAL:
            status = record.status.value if record else "missing"
            out.append(f"client transaction not terminal: {status}")
        if dep.sim.pending() != 0:
            out.append(f"simulator not drained: {dep.sim.pending()} events pending")
        return out

    @staticmethod
    def _check_evidence(dep: "Deployment", txn: str) -> list[str]:
        """No conflicting evidence: for one transaction, each (signer,
        flag) pair must attest a single data hash.  Retransmissions
        legitimately re-issue evidence (fresh headers), but they must
        all say the same thing; two receipts with different hashes
        would be a double-issued, self-contradictory commitment."""
        out = []
        for party in (dep.client, dep.provider, dep.ttp):
            attested: dict[tuple[str, str], set[bytes]] = {}
            for ev in party.evidence_store.for_transaction(txn):
                attested.setdefault(
                    (ev.signer, ev.header.flag.value), set()
                ).add(ev.header.data_hash)
            for (signer, flag), hashes in attested.items():
                if len(hashes) > 1 and flag != "DOWNLOAD_RESPONSE":
                    out.append(
                        f"{party.name} holds {len(hashes)} conflicting hashes "
                        f"from {signer} for flag {flag}"
                    )
        return out

    @staticmethod
    def _check_trace_accounting(dep: "Deployment") -> list[str]:
        """Every sent message has a recorded fate: delivered, dropped
        by the channel, or attributed to a fault decision.  A message
        that only appears as ``send`` vanished silently — exactly the
        kind of bug fault injection exists to catch."""
        out = []
        trace = dep.network.trace
        fates = {"deliver", "drop", "corrupt", "inject"}
        for send in trace.sends():
            events = trace.explain(send.msg_id)
            accounted = any(
                e.action in fates or e.action.startswith("fault.") for e in events
            )
            if not accounted:
                out.append(f"message {send.msg_id} ({send.kind}) has no recorded fate")
        return out

    @staticmethod
    def _check_durability(dep: "Deployment", amnesia_nodes: set[str]) -> list[str]:
        """No durably-acknowledged evidence record may ever be missing
        from the live store — not after any number of crashes and
        recoveries.  ``acked_evidence`` is everything the journal has
        fsynced; on an honest disk it is exactly what recovery can (and
        therefore must) restore.  A party hit by an amnesia crash with
        no journal at all lost its state irrecoverably — also flagged."""
        out = []
        for party in (dep.client, dep.provider, dep.ttp):
            journal = party.journal
            if journal is None:
                if party.name in amnesia_nodes:
                    out.append(
                        f"{party.name} took an amnesia crash with no durable "
                        f"journal: state irrecoverably lost"
                    )
                continue
            lost = journal.acked_evidence - party.evidence_store.seen_keys()
            if lost:
                out.append(
                    f"{party.name} lost {len(lost)} durably-acknowledged "
                    f"evidence record(s)"
                )
        return out
