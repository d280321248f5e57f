"""The RP1 campaign: every replica fault masked or detected, never silent.

:class:`ReplicationCampaignRunner` sweeps seeded
:class:`~repro.net.faults.FaultPlan`\\ s carrying ``replica_faults``
over fresh :class:`~repro.replication.store.ReplicatedStore` instances
(one per plan, three platform replicas, quorum 2).  Each plan drives a
seeded op sequence (writes + verified reads over a small key set),
injects its faults at the declared op points, heals partitions, and
runs the full Venus-style audit sweep.  Then each injected fault is
classified:

* **detected** — the verifier produced an error finding naming the
  faulted replica (divergence / fork / stale read / bad attestation);
* **masked** — no finding, but every read the workload issued returned
  the quorum-correct bytes (the fault never surfaced: lagging replicas
  hedged around, tampered copies overwritten by later writes);
* **silent** — neither: the fault corrupted observable state without a
  finding.  This is a violation, and the RP1 acceptance criterion is
  that it never happens.

Clean control plans must produce *zero* findings of any severity — the
verifier's false-positive guarantee.

Outcomes duck-type :func:`repro.obs.campaign.class_breakdown`, so it
folds ``replica-divergence`` / ``split-brain`` / ``lagging-replica`` /
``byzantine-replica`` rows exactly as it folds FC1's ``drop`` /
``crash``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.drbg import HmacDrbg
from ..net.faults import FaultPlan, OutcomeTable, ReplicaFault, ReplicaFaultMode
from .store import ReplicatedStore, ReplicationError

__all__ = [
    "ReplicationOutcome",
    "ReplicationReport",
    "ReplicationCampaignRunner",
]

#: Sim-seconds charged per workload op (keeps elapsed deterministic).
_OP_COST = 0.01
#: Each plan's fresh store: its write quorum (of the three platform
#: replicas), the container it writes, the objects it pre-seeds and the
#: random puts/gets it then runs.
QUORUM = 2
CONTAINER = "repl"
OBJECT_COUNT = 3
OPS_PER_PLAN = 8


@dataclass
class ReplicationOutcome:
    """One plan's end-to-end result plus fault-accounting verdicts."""

    index: int
    plan: FaultPlan
    status: str  # "clean" | "masked" | "detected" | "silent"
    detail: str
    injected: int
    masked: int
    detected: int
    reads: int
    writes: int
    wrong_reads: int
    rejected_writes: int
    # Telemetry fields the per-fault-class breakdown expects; named to
    # line up with CampaignOutcome (retransmits = hedged reads,
    # recoveries = read-repairs).
    retransmits: int = 0
    recoveries: int = 0
    ttp_involved: bool = False
    wal_replayed: int = 0
    elapsed: float = 0.0
    violations: tuple[str, ...] = ()
    findings: tuple = ()  # VerifierFinding objects (all severities)

    def row(self) -> tuple:
        return (
            self.index,
            self.plan.name,
            self.plan.describe(),
            self.status,
            self.detail,
            self.injected,
            self.masked,
            self.detected,
            self.reads,
            self.writes,
            self.retransmits,
            self.recoveries,
            "; ".join(self.violations) if self.violations else "-",
        )


@dataclass
class ReplicationReport(OutcomeTable):
    """All outcomes of one replication campaign."""

    seed: str
    outcomes: list[ReplicationOutcome] = field(default_factory=list)

    HEADERS = (
        "#", "plan", "faults", "status", "detail", "inj", "masked",
        "det", "reads", "writes", "hedged", "repairs", "violations",
    )

    @property
    def injected_faults(self) -> int:
        return sum(o.injected for o in self.outcomes)

    @property
    def masked_faults(self) -> int:
        return sum(o.masked for o in self.outcomes)

    @property
    def detected_faults(self) -> int:
        return sum(o.detected for o in self.outcomes)

    @property
    def silent_faults(self) -> int:
        return self.injected_faults - self.masked_faults - self.detected_faults

    def clean_plan_findings(self) -> int:
        """Findings (any severity) on plans that injected nothing."""
        return sum(len(o.findings) for o in self.outcomes if o.injected == 0)


class ReplicationCampaignRunner:
    """Sweep replica-fault plans over fresh replicated stores."""

    def __init__(self, seed: bytes | str = b"replication-campaign") -> None:
        self.seed = seed if isinstance(seed, bytes) else seed.encode()

    def run(self, plans: list[FaultPlan]) -> ReplicationReport:
        report = ReplicationReport(seed=self.seed.decode("latin-1"))
        for index, plan in enumerate(plans):
            report.outcomes.append(self._run_plan(index, plan))
        return report

    # -- one plan ------------------------------------------------------------

    def _run_plan(self, index: int, plan: FaultPlan) -> ReplicationOutcome:
        rng = HmacDrbg(self.seed,
                       personalization=b"replication-run/" + plan.name.encode())
        store = ReplicatedStore(
            seed=self.seed + b"/" + plan.name.encode(), quorum=QUORUM)
        keys = [f"obj-{i}" for i in range(OBJECT_COUNT)]
        expected: dict[str, bytes] = {}
        faults_at: dict[int, list[ReplicaFault]] = {}
        for fault in plan.replica_faults:
            faults_at.setdefault(fault.at_op, []).append(fault)

        # Pre-seed every key so op-1 faults have objects to corrupt.
        clock = 0.0
        for key in keys:
            data = rng.generate(32)
            store.put(CONTAINER, key, data, at_time=clock)
            expected[key] = data
            clock += _OP_COST

        reads = writes = wrong_reads = rejected_writes = 0
        for op in range(1, OPS_PER_PLAN + 1):
            for fault in faults_at.get(op, ()):
                self._inject(store, fault, rng, keys, clock)
            clock += _OP_COST
            key = rng.choice(keys)
            if rng.random() < 0.5:
                data = rng.generate(32)
                try:
                    store.put(CONTAINER, key, data, at_time=clock)
                except ReplicationError:
                    rejected_writes += 1  # quorum lost: loud refusal
                else:
                    expected[key] = data
                writes += 1
            else:
                try:
                    obj = store.get(CONTAINER, key)
                except ReplicationError:
                    wrong_reads += 1  # no verified copy at all
                else:
                    if obj.data != expected[key]:
                        wrong_reads += 1
                reads += 1

        # Partitions heal; the full Venus-style sweep then cross-checks
        # every replica's (possibly forked) private history.
        for name in store.replica_names:
            store.heal_replica(name)
        store.audit()

        findings = tuple(store.verifier.findings)
        error_replicas = {f.replica for f in findings if f.is_error}
        masked = detected = 0
        violations: list[str] = []
        for fault in plan.replica_faults:
            if fault.replica in error_replicas:
                detected += 1
            elif wrong_reads == 0:
                masked += 1
            else:
                violations.append(f"silent-absorption: {fault.describe()}")
        if wrong_reads:
            violations.append(f"unverified-data-served x{wrong_reads}")
        if not plan.replica_faults and findings:
            violations.append(
                f"false-positive-findings x{len(findings)} on a clean plan")

        if violations:
            status = "silent"
        elif detected:
            status = "detected"
        elif masked:
            status = "masked"
        else:
            status = "clean"
        detail = (
            f"{len(store.verifier.error_findings())} error findings; "
            f"{store.read_repairs} repairs"
        )
        return ReplicationOutcome(
            index=index,
            plan=plan,
            status=status,
            detail=detail,
            injected=len(plan.replica_faults),
            masked=masked,
            detected=detected,
            reads=reads,
            writes=writes,
            wrong_reads=wrong_reads,
            rejected_writes=rejected_writes,
            retransmits=store.hedged_reads,
            recoveries=store.read_repairs,
            elapsed=round(clock + _OP_COST * len(keys), 6),
            violations=tuple(violations),
            findings=findings,
        )

    def _inject(self, store: ReplicatedStore, fault: ReplicaFault,
                rng: HmacDrbg, keys: list[str], clock: float) -> None:
        key = rng.choice(keys)
        if fault.mode is ReplicaFaultMode.DIVERGENCE:
            store.tamper_replica(fault.replica, CONTAINER, key,
                                 rng.generate(24))
        elif fault.mode is ReplicaFaultMode.SPLIT_BRAIN:
            store.fault_replica(fault.replica, "partitioned")
            store.minority_write(fault.replica, CONTAINER, key,
                                 rng.generate(24), at_time=clock)
        elif fault.mode is ReplicaFaultMode.LAGGING:
            store.fault_replica(fault.replica, "lagging")
        elif fault.mode is ReplicaFaultMode.BYZANTINE:
            store.tamper_replica(fault.replica, CONTAINER, key,
                                 rng.generate(24),
                                 forge_attestation=fault.forge_attestation)
        else:  # pragma: no cover - enum is closed
            raise ReplicationError(f"unhandled fault mode {fault.mode}")
