"""Forensic timeline reconstruction across all four telemetry surfaces.

The repo records what a TPNR deployment does in four independent
places: the span :class:`~repro.obs.span.Tracer` (intent, keyed by
transaction id), the wire-level :class:`~repro.net.trace.TraceRecorder`
(what actually crossed the network, keyed by ``msg_id``), each party's
:class:`~repro.durability.journal.PartyJournal` WAL (what was durably
committed *before* acting), and the per-party evidence archives (the
signed non-repudiation artifacts themselves).  Auditing work such as
*Don't Trust the Cloud, Verify* gets its power from exactly this
redundancy: independent records either corroborate one another or
expose the liar.

* :class:`TimelineReconstructor` joins the four surfaces for one
  transaction into a causally-ordered :class:`Timeline` (span events
  carry envelope ``msg_id``; WAL records are stamped with sim time and
  transaction id; evidence is matched through its archival span
  events);
* :class:`ConsistencyAuditor` checks cross-source invariants over a
  timeline and classifies violations (``message-loss``,
  ``amnesia-rollback``, ``in-storage-tampering``, ``trace-gap``, ...)
  — the paper's "tampering is undetectable inside the provider" claim
  turned into a machine-checkable detector;
* :class:`DisputeDossier` packages a timeline + evidence for the
  :class:`~repro.core.arbitrator.Arbitrator` and cross-validates the
  ruling against a verdict recomputed purely from the reconstruction.

Everything is read-only over live objects and deterministic per seed:
reconstructing a timeline twice yields byte-identical renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.protocol import Deployment
    from ..net.trace import TraceEvent

__all__ = [
    "TimelineEntry",
    "EvidenceFact",
    "Timeline",
    "TimelineReconstructor",
    "AuditFinding",
    "ConsistencyAuditor",
    "DisputeDossier",
]

# Causal rank inside one sim instant, matching the code's write order:
# the WAL entry lands before the wire send (log-before-act), replica
# store events fire while the provider services the request, the span
# event is recorded after the send returns, and evidence is archived
# after its span event.
_SOURCE_RANK = {"wal": 0, "wire": 1, "replica": 2, "span": 3, "evidence": 4}


@dataclass(frozen=True)
class TimelineEntry:
    """One cross-surface occurrence in a transaction's life."""

    time: float
    source: str  # "wal" | "wire" | "replica" | "span" | "evidence"
    party: str
    kind: str
    msg_id: int = 0
    detail: str = ""

    def row(self) -> tuple:
        return (
            f"{self.time:.6g}s",
            self.source,
            self.party or "-",
            self.kind,
            self.msg_id or "-",
            self.detail,
        )


@dataclass(frozen=True)
class EvidenceFact:
    """One archived piece of evidence, reduced to judgeable facts."""

    holder: str
    signer: str
    flag: str
    transaction_id: str
    data_hash: bytes
    verified: bool
    time: float


@dataclass
class Timeline:
    """The causally-ordered join of all four surfaces for one txn."""

    transaction_id: str
    entries: list[TimelineEntry] = field(default_factory=list)
    evidence_facts: list[EvidenceFact] = field(default_factory=list)
    # Kept for the auditor: the wire events this timeline was built
    # from and the msg_ids the span tree claims to have sent.
    wire_events: list["TraceEvent"] = field(default_factory=list)
    span_send_ids: frozenset[int] = frozenset()
    span_count: int = 0

    def sources(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.source] = counts.get(entry.source, 0) + 1
        return dict(sorted(counts.items()))

    def from_source(self, source: str) -> list[TimelineEntry]:
        return [e for e in self.entries if e.source == source]

    def span(self) -> float:
        if not self.entries:
            return 0.0
        times = [e.time for e in self.entries]
        return max(times) - min(times)

    def render(self, max_rows: int | None = None) -> str:
        from ..analysis.report import render_table  # lazy: obs stays importable from net/core

        entries = self.entries if max_rows is None else self.entries[:max_rows]
        table = render_table(
            ["time", "source", "party", "kind", "msg", "detail"],
            [e.row() for e in entries],
            title=f"Timeline for {self.transaction_id} "
                  f"({len(self.entries)} entries, {self.span():.6g}s)",
        )
        if max_rows is not None and len(self.entries) > max_rows:
            table += f"\n  ... {len(self.entries) - max_rows} more entries"
        return table


class TimelineReconstructor:
    """Joins spans, wire trace, WALs, and evidence for one txn.

    ``exclusive_trace=True`` asserts the wire trace covers only this
    transaction (the campaign runner clears the trace per plan), so
    every wire event joins; otherwise only events whose ``msg_id``
    appears on a span event of the transaction (plus process-level
    crash marks inside the transaction's time window) are pulled in.
    """

    def __init__(
        self,
        trace,
        tracer,
        parties,
        registry=None,
        exclusive_trace: bool = False,
        replication=None,
    ) -> None:
        self.trace = trace
        self.tracer = tracer
        self.parties = list(parties)
        self.registry = registry
        self.exclusive_trace = exclusive_trace
        self.replication = replication

    @classmethod
    def for_deployment(cls, dep: "Deployment", exclusive_trace: bool = False) -> "TimelineReconstructor":
        parties = [dep.client, dep.provider, dep.ttp, *dep.extra_clients.values()]
        return cls(
            dep.network.trace,
            dep.obs.tracer,
            parties,
            registry=dep.registry,
            exclusive_trace=exclusive_trace,
            replication=getattr(dep, "replication", None),
        )

    # -- the join ------------------------------------------------------------

    def reconstruct(self, transaction_id: str) -> Timeline:
        entries: list[TimelineEntry] = []

        # 1. Spans: the intent record, keyed directly by txn id.
        spans = self.tracer.trace(transaction_id)
        span_msg_ids: set[int] = set()
        span_send_ids: set[int] = set()
        evidence_event_times: dict[tuple[str, str, str], list[float]] = {}
        for span in spans:
            entries.append(TimelineEntry(
                span.start, "span", span.attrs.get("party", ""),
                f"span-start:{span.name}",
            ))
            for ev in span.events:
                if ev.msg_id:
                    span_msg_ids.add(ev.msg_id)
                    if ev.name.startswith("send:"):
                        span_send_ids.add(ev.msg_id)
                party = ev.attrs.get("party", "")
                entries.append(TimelineEntry(
                    ev.time, "span", party, f"event:{ev.name}", ev.msg_id,
                ))
                if ev.name.startswith("evidence:"):
                    key = (party, ev.attrs.get("signer", ""),
                           ev.name.split(":", 1)[1])
                    evidence_event_times.setdefault(key, []).append(ev.time)
            if span.finished:
                entries.append(TimelineEntry(
                    span.end, "span", span.attrs.get("party", ""),
                    f"span-end:{span.name}", 0, f"status={span.status}",
                ))

        # 2. Wire events, joined via msg_id (or wholesale when the
        # trace is known to cover only this transaction).
        window = ([e.time for e in entries] or [0.0])
        lo, hi = min(window), max(window)
        wire_events: list = []
        for event in self.trace.events:
            if self.exclusive_trace or not spans:
                joined = True
            elif event.msg_id:
                joined = event.msg_id in span_msg_ids
            else:
                # Process-level marks (crash windows) carry no msg_id;
                # join them by time when they fall inside the txn.
                joined = event.kind == "process" and lo <= event.time <= hi
            if not joined:
                continue
            wire_events.append(event)
            detail = f"{event.src}->{event.dst} {event.size_bytes}B"
            if event.note:
                detail += f" [{event.note}]"
            entries.append(TimelineEntry(
                event.time, "wire", event.src,
                f"wire:{event.action}:{event.kind}", event.msg_id, detail,
            ))

        # 3. WAL records: every journaled record stamped for this txn.
        wal_evidence_times: dict[tuple[str, str, str], list[float]] = {}
        for party in self.parties:
            journal = getattr(party, "journal", None)
            if journal is None:
                continue
            last_at = 0.0
            for record in journal.wal.records():
                at = record.get("at")
                if at is None:
                    at = last_at  # pre-stamp records inherit the scan position
                else:
                    last_at = at
                if not self._wal_record_matches(record, transaction_id):
                    continue
                rtype = record.get("type", "?")
                detail = self._wal_detail(record)
                entries.append(TimelineEntry(
                    at, "wal", party.name, f"wal:{rtype}", 0, detail,
                ))
                if rtype == "evidence":
                    header = record.get("header", {})
                    key = (party.name, record.get("signer", ""),
                           header.get("flag", ""))
                    wal_evidence_times.setdefault(key, []).append(at)

        # 4. Replica store events: the provider-side fan-out, keyed by
        # object key (the provider stores the payload under the txn id).
        if self.replication is not None:
            for ev in self.replication.events:
                if ev.key != transaction_id:
                    continue
                detail = f"{ev.container}/{ev.key} v{ev.version}"
                if ev.detail:
                    detail += f" [{ev.detail}]"
                entries.append(TimelineEntry(
                    ev.time, "replica", ev.replica,
                    f"replica:{ev.action}", 0, detail,
                ))

        # 5. Evidence archives, timed through their span events (or
        # their WAL append when spans are off).
        facts: list[EvidenceFact] = []
        used: dict[tuple[str, str, str], int] = {}
        fallback_time = max((e.time for e in entries), default=0.0)
        for party in self.parties:
            for opened in party.evidence_store.for_transaction(transaction_id):
                flag = opened.header.flag.value
                key = (party.name, opened.signer, flag)
                index = used.get(key, 0)
                used[key] = index + 1
                times = (evidence_event_times.get(key)
                         or wal_evidence_times.get(key) or [])
                at = times[index] if index < len(times) else (
                    times[-1] if times else fallback_time)
                verified = self._verify(opened)
                facts.append(EvidenceFact(
                    holder=party.name,
                    signer=opened.signer,
                    flag=flag,
                    transaction_id=opened.header.transaction_id,
                    data_hash=opened.header.data_hash,
                    verified=verified,
                    time=at,
                ))
                entries.append(TimelineEntry(
                    at, "evidence", party.name, f"evidence:{flag}", 0,
                    f"signer={opened.signer} "
                    f"hash={opened.header.data_hash.hex()[:12]} "
                    f"verified={'yes' if verified else 'NO'}",
                ))

        indexed = sorted(
            enumerate(entries),
            key=lambda pair: (pair[1].time, _SOURCE_RANK[pair[1].source], pair[0]),
        )
        return Timeline(
            transaction_id=transaction_id,
            entries=[entry for _, entry in indexed],
            evidence_facts=facts,
            wire_events=wire_events,
            span_send_ids=frozenset(span_send_ids),
            span_count=len(spans),
        )

    # -- helpers -------------------------------------------------------------

    def _verify(self, opened) -> bool:
        if self.registry is None:
            return True
        from ..core.evidence import verify_opened_evidence  # lazy: core imports obs

        return verify_opened_evidence(opened, self.registry)

    @staticmethod
    def _wal_record_matches(record: dict, transaction_id: str) -> bool:
        if record.get("txn") == transaction_id:
            return True
        if record.get("transaction_id") == transaction_id:
            return True
        header = record.get("header")
        return isinstance(header, dict) and header.get("txn") == transaction_id

    @staticmethod
    def _wal_detail(record: dict) -> str:
        rtype = record.get("type")
        if rtype in ("send", "recv"):
            return f"peer={record.get('peer')} seq={record.get('seq')}"
        if rtype == "evidence":
            header = record.get("header", {})
            return f"{header.get('flag')} signer={record.get('signer')}"
        if rtype == "txn":
            return f"status={record.get('status')}"
        keys = sorted(k for k in record if k not in ("type", "at"))
        return " ".join(_wal_field(k, record[k]) for k in keys[:3])


def _wal_field(key: str, value) -> str:
    """One record field, short: a blob-segment reference shows as the
    payload's digest prefix, anything else as a truncated repr."""
    # Imported here: repro.durability imports core, which imports obs.
    from ..durability.wal import BLOB_TAG

    if isinstance(value, dict) and set(value) == {BLOB_TAG}:
        return f"{key}=sha256:{value[BLOB_TAG][:12]}"
    return f"{key}={value!r}"[:32]


# ---------------------------------------------------------------------------
# Cross-source consistency auditing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditFinding:
    """One classified cross-source inconsistency."""

    category: str
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.category}: {self.subject}"


# What each fault-injection action means for the transaction's story.
_FAULT_CATEGORY = {
    "fault.drop": "message-loss",
    "fault.crash": "message-loss",
    "fault.corrupt": "message-corruption",
    "fault.duplicate": "duplicate-injection",
    "fault.delay": "message-delay",
    "fault.reorder": "message-delay",
}


class ConsistencyAuditor:
    """Checks cross-surface invariants and classifies the violations.

    The checks mirror the recording discipline: every delivered wire
    event must have a matching span send event (same ``msg_id``); every
    journaled log-before-act entry must precede — and be corroborated
    by — its wire send; evidence digests must agree across signers with
    custody (receipt vs. served hash); crash windows and fault
    decisions must account for every non-delivery.  Violations carry a
    category (``message-loss``, ``amnesia-rollback``,
    ``in-storage-tampering``, ``trace-gap``, ...), so a campaign can
    attribute every bad outcome to a concrete cause — and a clean run
    must produce zero findings.
    """

    def __init__(self, reconstructor: TimelineReconstructor, provider_name: str = "bob") -> None:
        self.reconstructor = reconstructor
        self.provider_name = provider_name

    @classmethod
    def for_deployment(cls, dep: "Deployment", exclusive_trace: bool = False) -> "ConsistencyAuditor":
        return cls(
            TimelineReconstructor.for_deployment(dep, exclusive_trace=exclusive_trace),
            provider_name=dep.provider.name,
        )

    def audit(self, transaction_id: str, timeline: Timeline | None = None) -> list[AuditFinding]:
        if timeline is None:
            timeline = self.reconstructor.reconstruct(transaction_id)
        findings: list[AuditFinding] = []
        findings.extend(self._check_fault_marks(timeline))
        findings.extend(self._check_wire_vs_spans(timeline))
        findings.extend(self._check_journal_vs_wire(timeline))
        findings.extend(self._check_evidence_digests(timeline))
        findings.extend(self._check_durability(timeline))
        findings.extend(self._check_replication(timeline))
        unique: dict[tuple[str, str], AuditFinding] = {}
        for finding in findings:
            unique.setdefault((finding.category, finding.subject), finding)
        return list(unique.values())

    # -- wire-level fates ----------------------------------------------------

    def _check_fault_marks(self, timeline: Timeline) -> list[AuditFinding]:
        from ..net.trace import parse_fault_note  # lazy: obs stays importable from net

        out: list[AuditFinding] = []
        for event in timeline.wire_events:
            if event.action == "drop":
                out.append(AuditFinding(
                    "message-loss",
                    f"msg {event.msg_id} ({event.kind})",
                    f"dropped by channel at {event.time:.6g}s",
                ))
                continue
            if not event.action.startswith("fault."):
                continue
            if event.action in ("fault.crash-begin", "fault.crash-end"):
                if event.action == "fault.crash-end":
                    continue
                note = parse_fault_note(event.note)
                if note is not None and note.action == "amnesia-crash":
                    out.append(AuditFinding(
                        "amnesia-rollback",
                        f"{event.src} amnesia crash",
                        f"volatile state wiped at {event.time:.6g}s ({event.note})",
                    ))
                else:
                    out.append(AuditFinding(
                        "crash-outage",
                        f"{event.src} crash window",
                        f"down from {event.time:.6g}s ({event.note})",
                    ))
                continue
            category = _FAULT_CATEGORY.get(event.action)
            if category is None:
                continue
            out.append(AuditFinding(
                category,
                f"msg {event.msg_id} ({event.kind})",
                f"{event.action} at {event.time:.6g}s [{event.note}]",
            ))
        return out

    # -- spans vs. wire ------------------------------------------------------

    def _check_wire_vs_spans(self, timeline: Timeline) -> list[AuditFinding]:
        """Every delivered tpnr message must appear as a span send
        event, and every span send event must appear on the wire."""
        if timeline.span_count == 0:
            return []  # tracer off: nothing to cross-check
        out: list[AuditFinding] = []
        wire_ids = {e.msg_id for e in timeline.wire_events if e.msg_id}
        for event in timeline.wire_events:
            if event.action != "deliver" or not event.kind.startswith("tpnr."):
                continue
            if event.msg_id not in timeline.span_send_ids:
                out.append(AuditFinding(
                    "trace-gap",
                    f"msg {event.msg_id} ({event.kind})",
                    "delivered on the wire but absent from the span tree",
                ))
        for msg_id in sorted(timeline.span_send_ids - wire_ids):
            out.append(AuditFinding(
                "trace-gap",
                f"msg {msg_id}",
                "span tree records a send the wire trace never saw",
            ))
        return out

    # -- journal vs. wire ----------------------------------------------------

    def _check_journal_vs_wire(self, timeline: Timeline) -> list[AuditFinding]:
        """Log-before-act: a journaled ``send`` commits to a wire send
        at the same sim instant.  A journaled send with no wire send
        means the WAL and the network disagree about history."""
        out: list[AuditFinding] = []
        sends_by_party: dict[str, list[float]] = {}
        for event in timeline.wire_events:
            if event.action == "send":
                sends_by_party.setdefault(event.src, []).append(event.time)
        for entry in timeline.from_source("wal"):
            if entry.kind != "wal:send":
                continue
            times = sends_by_party.get(entry.party, [])
            if not any(abs(t - entry.time) < 1e-9 for t in times):
                out.append(AuditFinding(
                    "trace-gap",
                    f"{entry.party} journaled send @{entry.time:.6g}s",
                    "no matching wire send at the journaled instant "
                    f"({entry.detail})",
                ))
        return out

    # -- evidence digests ----------------------------------------------------

    def _check_evidence_digests(self, timeline: Timeline) -> list[AuditFinding]:
        """The signed digests must tell one story: what the provider
        acknowledged (receipt) is what it serves (download response) is
        what the client committed to (upload NRO)."""
        out: list[AuditFinding] = []
        for fact in timeline.evidence_facts:
            if not fact.verified:
                out.append(AuditFinding(
                    "in-storage-tampering",
                    f"{fact.flag} held by {fact.holder}",
                    f"signature attributed to {fact.signer} does not verify",
                ))
        provider = self.provider_name

        def latest(flag: str, signer: str | None = None) -> EvidenceFact | None:
            matches = [
                f for f in timeline.evidence_facts
                if f.verified and f.flag == flag
                and (signer is None or f.signer == signer)
            ]
            return matches[-1] if matches else None

        receipt = latest("UPLOAD_RECEIPT", provider)
        served = latest("DOWNLOAD_RESPONSE", provider)
        origin = latest("UPLOAD")
        if receipt is not None and served is not None \
                and served.data_hash != receipt.data_hash:
            out.append(AuditFinding(
                "in-storage-tampering",
                f"txn {timeline.transaction_id}",
                f"receipt hash {receipt.data_hash.hex()[:12]} != served hash "
                f"{served.data_hash.hex()[:12]}: data changed in custody",
            ))
        if receipt is not None and origin is not None \
                and origin.data_hash != receipt.data_hash:
            out.append(AuditFinding(
                "in-storage-tampering",
                f"txn {timeline.transaction_id}",
                "provider-acknowledged hash differs from the client's "
                "signed upload NRO",
            ))
        return out

    # -- durability ----------------------------------------------------------

    def _check_durability(self, timeline: Timeline) -> list[AuditFinding]:
        """Durably-acknowledged evidence must exist in the live store;
        an amnesia crash without a journal is irrecoverable loss."""
        out: list[AuditFinding] = []
        amnesia_parties = {
            f.subject.split(" ")[0]
            for f in self._check_fault_marks(timeline)
            if f.category == "amnesia-rollback"
        }
        for party in self.reconstructor.parties:
            journal = getattr(party, "journal", None)
            if journal is None:
                if party.name in amnesia_parties:
                    out.append(AuditFinding(
                        "amnesia-rollback",
                        f"{party.name} unjournaled state",
                        "amnesia crash with no durable journal: "
                        "state irrecoverably lost",
                    ))
                continue
            lost = journal.acked_evidence - party.evidence_store.seen_keys()
            if lost:
                out.append(AuditFinding(
                    "amnesia-rollback",
                    f"{party.name} evidence store",
                    f"{len(lost)} durably-acknowledged evidence record(s) "
                    "missing from the live store",
                ))
        return out

    # -- replica consistency -------------------------------------------------

    def _check_replication(self, timeline: Timeline) -> list[AuditFinding]:
        """When the deployment stores through a replicated store, the
        fork-consistency verifier's error findings for this transaction's
        object become audit findings — silent divergence by a replica is
        as much an inconsistency as a forged digest."""
        replication = getattr(self.reconstructor, "replication", None)
        if replication is None:
            return []
        out: list[AuditFinding] = []
        for f in replication.verifier.findings_for(key=timeline.transaction_id):
            if not f.is_error:
                continue
            out.append(AuditFinding(
                f.category,
                f"{f.replica} {f.container}/{f.key}",
                f.detail,
            ))
        return out


# ---------------------------------------------------------------------------
# Dispute dossiers
# ---------------------------------------------------------------------------


class DisputeDossier:
    """A transaction's reconstructed case file for the Arbitrator.

    Bundles the timeline, the auditor's findings, and both parties'
    evidence.  :meth:`reconstructed_verdict` recomputes the ruling from
    the timeline's evidence facts alone; :meth:`rule` feeds the raw
    evidence to a real :class:`~repro.core.arbitrator.Arbitrator`.  The
    two must agree — :meth:`agrees` is the drift detector between the
    evidence path and the reconstruction path.
    """

    def __init__(
        self,
        transaction_id: str,
        provider_name: str,
        ttp_name: str,
        timeline: Timeline,
        findings: list[AuditFinding],
        claimant_evidence: list,
        respondent_evidence: list,
    ) -> None:
        self.transaction_id = transaction_id
        self.provider_name = provider_name
        self.ttp_name = ttp_name
        self.timeline = timeline
        self.findings = findings
        self.claimant_evidence = claimant_evidence
        self.respondent_evidence = respondent_evidence

    @classmethod
    def build(
        cls,
        dep: "Deployment",
        transaction_id: str,
        claimant_name: str | None = None,
        exclusive_trace: bool = False,
    ) -> "DisputeDossier":
        claimant = (dep.client if claimant_name is None
                    else dep.any_client(claimant_name))
        auditor = ConsistencyAuditor.for_deployment(
            dep, exclusive_trace=exclusive_trace
        )
        timeline = auditor.reconstructor.reconstruct(transaction_id)
        return cls(
            transaction_id=transaction_id,
            provider_name=dep.provider.name,
            ttp_name=dep.ttp.name,
            timeline=timeline,
            findings=auditor.audit(transaction_id, timeline),
            claimant_evidence=claimant.evidence_store.for_transaction(transaction_id),
            respondent_evidence=dep.provider.evidence_store.for_transaction(transaction_id),
        )

    # -- verdicts ------------------------------------------------------------

    def _latest_fact(self, flag: str, signer: str | None = None) -> EvidenceFact | None:
        matches = [
            f for f in self.timeline.evidence_facts
            if f.verified and f.flag == flag
            and (signer is None or f.signer == signer)
        ]
        return matches[-1] if matches else None

    def reconstructed_verdict(self, dispute: str = "tampering"):
        """The verdict implied by the reconstructed timeline alone,
        applying the Arbitrator's decision rules to the evidence facts
        the reconstruction recovered."""
        from ..core.arbitrator import Verdict  # lazy: core imports obs

        if dispute == "tampering":
            receipt = self._latest_fact("UPLOAD_RECEIPT", self.provider_name)
            served = self._latest_fact("DOWNLOAD_RESPONSE", self.provider_name)
            if receipt is not None and served is not None:
                if served.data_hash != receipt.data_hash:
                    return Verdict.PROVIDER_FAULT
                return Verdict.CLAIM_REJECTED
            ack = self._latest_fact("DOWNLOAD_ACK")
            if receipt is not None and ack is not None:
                if ack.data_hash == receipt.data_hash:
                    return Verdict.CLAIM_REJECTED
                return Verdict.PROVIDER_FAULT
            return Verdict.UNRESOLVED
        if dispute == "missing-receipt":
            receipt = self._latest_fact("UPLOAD_RECEIPT", self.provider_name)
            if receipt is None:
                receipt = self._latest_fact("RESOLVE_REPLY", self.provider_name)
            if receipt is not None:
                return Verdict.CLAIM_REJECTED
            statement = self._latest_fact("RESOLVE_FAILED", self.ttp_name)
            if statement is not None:
                return Verdict.PROVIDER_FAULT
            return Verdict.UNRESOLVED
        raise ValueError(f"unknown dispute type {dispute!r}")

    def rule(self, arbitrator, dispute: str = "tampering"):
        """Submit the dossier's evidence to a real Arbitrator."""
        if dispute == "tampering":
            return arbitrator.rule_on_tampering(
                self.transaction_id,
                self.provider_name,
                self.claimant_evidence,
                self.respondent_evidence,
            )
        if dispute == "missing-receipt":
            return arbitrator.rule_on_missing_receipt(
                self.transaction_id,
                self.provider_name,
                self.ttp_name,
                self.claimant_evidence,
                self.respondent_evidence,
            )
        raise ValueError(f"unknown dispute type {dispute!r}")

    def agrees(self, arbitrator, dispute: str = "tampering") -> bool:
        """True iff the Arbitrator's ruling on the raw evidence matches
        the verdict recomputed from the reconstructed timeline."""
        return self.rule(arbitrator, dispute).verdict is \
            self.reconstructed_verdict(dispute)

    # -- rendering -----------------------------------------------------------

    def render(self, arbitrator=None, max_rows: int | None = 40) -> str:
        from ..analysis.report import render_kv  # lazy: obs stays importable from net/core

        pairs: list[tuple[str, object]] = [
            ("transaction", self.transaction_id),
            ("provider", self.provider_name),
            ("claimant evidence", len(self.claimant_evidence)),
            ("respondent evidence", len(self.respondent_evidence)),
            ("findings", "; ".join(str(f) for f in self.findings) or "none"),
            ("reconstructed verdict (tampering)",
             self.reconstructed_verdict("tampering").value),
            ("reconstructed verdict (missing-receipt)",
             self.reconstructed_verdict("missing-receipt").value),
        ]
        if arbitrator is not None:
            for dispute in ("tampering", "missing-receipt"):
                ruling = self.rule(arbitrator, dispute)
                agree = ruling.verdict is self.reconstructed_verdict(dispute)
                pairs.append((
                    f"arbitrator ({dispute})",
                    f"{ruling.verdict.value} "
                    f"[{'agrees' if agree else 'DISAGREES'}]",
                ))
        header = render_kv(pairs, title=f"Dispute dossier {self.transaction_id}")
        return f"{header}\n{self.timeline.render(max_rows=max_rows)}"
