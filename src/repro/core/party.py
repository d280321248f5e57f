"""Shared machinery for TPNR protocol roles.

:class:`TpnrParty` extends the network :class:`~repro.net.node.Node`
with everything every role needs: an identity + key registry, the
policy, per-peer anti-replay state, an evidence store, and helpers to
build outbound messages (allocating sequence numbers and nonces,
stamping time limits, attaching evidence) and to validate inbound ones
(time limit, sequence, nonce, evidence verification).

It also hosts the retransmission engine every role shares: an
unacknowledged message is rebuilt (fresh sequence number, nonce, and
time limit — the §4 header machinery is exactly what distinguishes a
legitimate retransmission from a replay) and re-sent with capped
exponential backoff until the role-level acknowledgement arrives or the
retry budget runs out, at which point the role's own timeout escalates
to Abort/Resolve instead of hanging.

Durability (PR 2): a party may carry a
:class:`~repro.durability.journal.PartyJournal`.  When it does, every
evidence-bearing transition is logged **before** it is acted on —
outbound headers before the send (:meth:`send`), inbound anti-replay
consumption on acceptance (:meth:`validate_and_open`), evidence before
archiving (:meth:`archive_evidence`), status changes at the moment they
happen (:meth:`finish_txn`).  :meth:`begin_crash` with ``amnesia=True``
models a real process death: every timer dies with the process, the
journal's write buffer is lost, and volatile protocol state is wiped;
:func:`repro.durability.recovery.recover` rebuilds it at restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ..crypto.drbg import HmacDrbg
from ..crypto.pki import Identity, KeyRegistry
from ..errors import ProtocolError, ReplayError
from ..net.events import ScheduledEvent
from ..net.network import Envelope
from ..net.node import Node
from .evidence import (
    BatchedEvidence,
    OpenedEvidence,
    build_batched_evidence,
    build_evidence,
    open_evidence,
    verify_opened_evidence,
)
from .messages import Flag, Header, TpnrMessage
from .policy import DEFAULT_POLICY, TpnrPolicy
from .transaction import EvidenceStore, PeerState, TransactionRecord

__all__ = ["TpnrParty"]

_NONCE_SIZE = 16


@dataclass
class _RetransmitState:
    """One armed retransmission loop."""

    dst: str
    kind: str
    rebuild: Callable[[], TpnrMessage]
    still_needed: Callable[[], bool]
    attempts_left: int
    delay: float
    event: ScheduledEvent | None = None


class TpnrParty(Node):
    """Base class for Alice / Bob / the TTP."""

    def __init__(
        self,
        identity: Identity,
        registry: KeyRegistry,
        rng: HmacDrbg,
        ttp_name: str = "",
        policy: TpnrPolicy = DEFAULT_POLICY,
    ) -> None:
        super().__init__(identity.name)
        self.identity = identity
        self.registry = registry
        self.policy = policy
        self.ttp_name = ttp_name
        self.rng = rng.fork(f"tpnr/{identity.name}")
        self.evidence_store = EvidenceStore(identity.name)
        self.transactions: dict[str, TransactionRecord] = {}
        self._peers: dict[str, PeerState] = {}
        self.rejected_messages: list[tuple[str, str]] = []  # (kind, reason)
        self._retransmits: dict[Hashable, _RetransmitState] = {}
        self.retransmits_sent = 0
        # Durability hooks (None/False until a journal is attached or a
        # crash window hits this node).
        self.journal = None  # PartyJournal | None
        self.crashed = False
        self.recoveries = 0
        self._live_timers: list[ScheduledEvent] = []
        # Open observability spans keyed by phase, e.g.
        # ("resolve", txn).  Volatile on purpose: an amnesia crash
        # closes them (status "crashed") and wipes the map.
        self._obs_spans: dict[Hashable, object] = {}
        # Harness hook: called with the TransactionRecord whenever one
        # of this party's transactions reaches a terminal status.  The
        # throughput engine chains follow-up work (downloads, latency
        # accounting) from here without polling the simulator.
        self.on_txn_terminal: Callable[[TransactionRecord], None] | None = None
        # Batched-evidence seats (None until configure_batching): the
        # shared ledger lets this party *resolve* inclusion proofs for
        # batched evidence it receives; the batcher (emitters only)
        # accumulates this party's own outbound evidence leaves.
        self.batch_ledger = None  # crypto.batch.BatchLedger | None
        self.batcher = None  # crypto.batch.EvidenceBatcher | None
        self._pending_batched: list[BatchedEvidence] = []
        self.batched_failures: list[BatchedEvidence] = []

    # -- batched evidence ----------------------------------------------------

    def configure_batching(self, ledger, batcher=None) -> None:
        """Join a batched-evidence world: *ledger* for resolving proofs
        on received items; *batcher* (emitters only) for committing own
        outbound evidence leaves."""
        self.batch_ledger = ledger
        self.batcher = batcher

    def _resolve_batched(self, opened: BatchedEvidence) -> str:
        """Try to resolve *opened*'s inclusion proof from the ledger.

        Returns ``"verified"`` (proof found and valid), ``"pending"``
        (covering batch not sealed yet — settle later), or
        ``"invalid"`` (a proof exists but does not verify: the item was
        tampered relative to what the signer committed).
        """
        if self.batch_ledger is None:
            return "pending"
        proof = self.batch_ledger.proof_for(opened.signer, opened.leaf)
        if proof is None:
            return "pending"
        opened.resolve(proof)
        if verify_opened_evidence(opened, self.registry):
            return "verified"
        return "invalid"

    def settle_batched_evidence(self) -> tuple[int, int]:
        """Resolve every pending batched item (end-of-run, after all
        signers sealed).  Returns ``(resolved, failed)``; failures —
        items whose batch never sealed or whose proof does not verify —
        land in :attr:`batched_failures`, never silently accepted.
        """
        resolved = failed = 0
        pending, self._pending_batched = self._pending_batched, []
        for opened in pending:
            if self._resolve_batched(opened) == "verified":
                resolved += 1
            else:
                failed += 1
                self.batched_failures.append(opened)
                self.reject("batched-evidence",
                            f"unsettled or invalid inclusion proof "
                            f"(txn {opened.header.transaction_id})")
        return resolved, failed

    # -- durability ----------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Adopt a :class:`~repro.durability.journal.PartyJournal`."""
        self.journal = journal
        journal.bind(self)

    def set_timeout(self, delay: float, callback) -> ScheduledEvent:
        """Track every timer so an amnesia crash can kill them all —
        a timer is process state; it cannot survive a process death."""
        event = super().set_timeout(delay, callback)
        self._live_timers.append(event)
        if len(self._live_timers) > 64:
            self._live_timers = [
                e for e in self._live_timers
                if not e.cancelled and e.time >= self.now
            ]
        return event

    def send(self, dst: str, kind: str, payload):
        """Log-before-send: the header (whose sequence number and nonce
        are already consumed) must be durable before the wire sees it,
        or a crash+restart would reuse the sequence number."""
        if self.journal is not None and isinstance(payload, TpnrMessage):
            self.journal.log_send(payload.header)
        envelope = super().send(dst, kind, payload)
        obs = self.obs
        if obs.enabled and isinstance(payload, TpnrMessage):
            # Correlate the span tree with the wire trace: the send
            # event carries the envelope's msg_id, which the
            # TraceRecorder indexes too.
            root = obs.tracer.root(payload.header.transaction_id)
            if root is not None:
                root.event(self.now, f"send:{kind}", msg_id=envelope.msg_id,
                           party=self.name)
        return envelope

    def archive_evidence(self, opened: OpenedEvidence) -> bool:
        """Journal (if new) then archive one piece of evidence.

        The WAL append precedes the store insert: once the in-memory
        archive holds it, the protocol may act on it (issue receipts,
        finish transactions), so it must already be durable.

        Batched evidence resolves its inclusion proof here if the
        covering batch has already sealed; an **invalid** proof (batch
        signature fine, item not under the root) is rejected outright —
        never archived, never silently accepted.  A still-pending item
        is archived and queued for :meth:`settle_batched_evidence`.
        """
        if isinstance(opened, BatchedEvidence) and opened.pending:
            status = self._resolve_batched(opened)
            if status == "invalid":
                self.reject("batched-evidence",
                            f"inclusion proof invalid "
                            f"(txn {opened.header.transaction_id})")
                self.batched_failures.append(opened)
                return False
            if status == "pending" and not self.evidence_store.holds(opened):
                self._pending_batched.append(opened)
        if self.journal is not None and not self.evidence_store.holds(opened):
            self.journal.log_evidence(opened)
        added = self.evidence_store.add(opened)
        obs = self.obs
        if obs.enabled and added:
            obs.metrics.counter(
                "party.evidence_archived",
                party=self.name, flag=opened.header.flag.value,
            ).inc()
            root = obs.tracer.root(opened.header.transaction_id)
            if root is not None:
                root.event(self.now, f"evidence:{opened.header.flag.value}",
                           party=self.name, signer=opened.signer)
        return added

    def journal_txn(self, record: TransactionRecord) -> None:
        if self.journal is not None:
            self.journal.log_txn(record)

    def finish_txn(
        self, record: TransactionRecord, status, detail: str = ""
    ) -> None:
        """Finish a transaction and journal the terminal status."""
        record.finish(status, self.now, detail)
        self.journal_txn(record)
        obs = self.obs
        if obs.enabled:
            root = obs.tracer.root(record.transaction_id)
            if root is not None:
                root.event(self.now, f"status:{status.value}",
                           party=self.name, detail=detail)
                # The client's record going terminal is the end of the
                # transaction; its root span closes with that status.
                if record.role == "client":
                    obs.tracer.finish(root, status=status.value)
            obs.metrics.counter(
                "txn.finished", role=record.role, status=status.value
            ).inc()
            if record.role == "client":
                obs.metrics.histogram("txn.duration_seconds").observe(
                    self.now - record.started_at
                )
        if self.on_txn_terminal is not None:
            self.on_txn_terminal(record)

    def begin_crash(self, amnesia: bool = False) -> None:
        """The process dies.  Always kill the retransmission loops (a
        dead process sends nothing); with *amnesia* also kill every
        timer, lose the journal's write buffer, and wipe volatile
        protocol state.  Observability counters survive — they model
        the test harness watching the node, not the node itself.
        """
        self.cancel_all_retransmits()
        if not amnesia:
            return
        self.crashed = True
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("party.crashes", party=self.name).inc()
            # Close this party's open phase spans: the work they were
            # timing died with the process.  (The spans themselves live
            # on the network's tracer, which is why they survive to be
            # closed at all.)
            for span in self._obs_spans.values():
                obs.tracer.finish(span, status="crashed")
        self._obs_spans = {}
        for event in self._live_timers:
            event.cancel()
        self._live_timers = []
        if self.journal is not None:
            self.journal.crash()
        self.transactions = {}
        self._peers = {}
        self._pending_batched = []
        duplicates = self.evidence_store.duplicates_suppressed
        self.evidence_store = EvidenceStore(self.name)
        self.evidence_store.duplicates_suppressed = duplicates
        self._wipe_role_state()

    def _wipe_role_state(self) -> None:
        """Role-specific volatile state lost in an amnesia crash."""

    # -- observability spans ------------------------------------------------

    def span_begin(self, key: Hashable, transaction_id: str, name: str, **attrs):
        """Open a phase span under the transaction's root span.

        No-op (returns None) when observation is off.  If a span with
        the same *key* is already open it is kept and a ``retry`` event
        is recorded instead — phases like Abort legitimately restart.
        """
        obs = self.obs
        if not obs.enabled:
            return None
        existing = self._obs_spans.get(key)
        if existing is not None and not existing.finished:
            existing.event(self.now, "retry")
            return existing
        span = obs.tracer.start(transaction_id, name, party=self.name, **attrs)
        self._obs_spans[key] = span
        return span

    def span_end(self, key: Hashable, status: str = "ok") -> None:
        """Close the phase span opened under *key*, if any."""
        span = self._obs_spans.pop(key, None)
        if span is not None:
            self.obs.tracer.finish(span, status=status)

    def span_event(self, transaction_id: str, name: str, **attrs) -> None:
        """Record an event on the transaction's root span, if any."""
        obs = self.obs
        if obs.enabled:
            root = obs.tracer.root(transaction_id)
            if root is not None:
                root.event(self.now, name, party=self.name, **attrs)

    # -- state helpers -------------------------------------------------------

    def peer_state(self, peer: str) -> PeerState:
        return self._peers.setdefault(peer, PeerState())

    # -- outbound --------------------------------------------------------------

    def make_header(
        self,
        flag: Flag,
        recipient: str,
        transaction_id: str,
        data_hash: bytes,
    ) -> Header:
        """Allocate seq + nonce and stamp the time limit for one message."""
        return Header(
            flag=flag,
            sender_id=self.name,
            recipient_id=recipient,
            ttp_id=self.ttp_name,
            transaction_id=transaction_id,
            sequence_number=self.peer_state(recipient).allocate_seq(),
            nonce=self.rng.generate(_NONCE_SIZE),
            time_limit=self.now + self.policy.message_time_limit,
            data_hash=data_hash,
        )

    def make_message(
        self,
        header: Header,
        data: bytes | None = None,
        annotations: tuple[tuple[str, str], ...] = (),
        evidence_recipient: str | None = None,
    ) -> TpnrMessage:
        """Attach evidence (encrypted to *evidence_recipient*, default
        the header's recipient) and assemble the wire message."""
        if self.batcher is not None:
            # Batched mode: commit the evidence leaf instead of signing
            # per message — the wire carries the fixed-size leaf blob.
            blob = build_batched_evidence(self.identity, header, self.batcher)
        else:
            target = evidence_recipient or header.recipient_id
            blob = build_evidence(
                self.identity,
                self.registry.lookup(target),
                header,
                self.rng,
                encrypt=self.policy.encrypt_evidence,
            )
        return TpnrMessage(header=header, data=data, evidence=blob, annotations=annotations)

    # -- inbound ----------------------------------------------------------------

    def validate_and_open(self, message: TpnrMessage) -> OpenedEvidence:
        """Run the full §4.1/§5 inbound checks; returns opened evidence.

        Checks, in order: addressing, time limit (§5.5), sequence
        number monotonicity + nonce freshness (§5.3/§5.4), then the
        evidence signatures (§4.1).  Raises ReplayError / ProtocolError
        / EvidenceError; callers convert to rejections.
        """
        header = message.header
        if header.recipient_id != self.name:
            raise ProtocolError(
                f"message addressed to {header.recipient_id!r}, I am {self.name!r}"
            )
        if self.policy.enforce_time_limit and self.now > header.time_limit:
            raise ReplayError(
                f"message expired: now={self.now:.3f} > limit={header.time_limit:.3f}"
            )
        self.peer_state(header.sender_id).check_receive(
            header.sequence_number,
            header.nonce,
            enforce_sequence=self.policy.enforce_sequence,
            enforce_nonce=self.policy.enforce_nonce,
        )
        # The (seq, nonce) pair is consumed: journal it before anything
        # acts on the message, or a crash+restart would accept a replay.
        if self.journal is not None:
            self.journal.log_recv(header)
        if not self.policy.verify_evidence:
            # Status-quo ablation: accept without evidence (still store
            # an unverified placeholder so flows continue).
            return OpenedEvidence(
                header=header,
                signature_over_data_hash=b"",
                signature_over_header=b"",
                signer=header.sender_id,
            )
        opened = open_evidence(
            self.identity,
            self.registry.lookup(header.sender_id),
            header.sender_id,
            header,
            message.evidence,
        )
        return opened

    def reject(self, kind: str, reason: str) -> None:
        """Record a rejected inbound message (attack metrics read this)."""
        self.rejected_messages.append((kind, reason))
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("party.rejections", party=self.name, kind=kind).inc()

    def corrupted_inbound(self, envelope: Envelope) -> bool:
        """Reject an envelope flagged corrupted in transit; True if so.

        A corrupted message would fail signature/hash checks anyway;
        rejecting it up front keeps the rejection reason crisp and lets
        the sender's retransmission loop supply a clean copy.
        """
        if getattr(envelope, "corrupted", False):
            self.reject(envelope.kind, "payload corrupted in transit")
            return True
        return False

    # -- retransmission ---------------------------------------------------------

    def arm_retransmit(
        self,
        key: Hashable,
        dst: str,
        kind: str,
        rebuild: Callable[[], TpnrMessage],
        still_needed: Callable[[], bool],
    ) -> None:
        """Start a retransmission loop for one unacknowledged message.

        *rebuild* must construct a **fresh** message (new sequence
        number, nonce, and time limit) each time — re-sending the
        original bytes would trip the receiver's own anti-replay
        checks.  *still_needed* is consulted before every firing; the
        loop also stops when :meth:`cancel_retransmit` is called with
        the same *key* or the ``max_retransmits`` budget is spent.
        """
        self.cancel_retransmit(key)
        if self.policy.max_retransmits == 0:
            return
        state = _RetransmitState(
            dst=dst,
            kind=kind,
            rebuild=rebuild,
            still_needed=still_needed,
            attempts_left=self.policy.max_retransmits,
            delay=self.policy.retransmit_initial,
        )
        self._retransmits[key] = state
        state.event = self.set_timeout(state.delay, lambda: self._retransmit_fire(key))

    def cancel_retransmit(self, key: Hashable) -> None:
        state = self._retransmits.pop(key, None)
        if state is not None and state.event is not None:
            state.event.cancel()

    def cancel_all_retransmits(self) -> None:
        for key in list(self._retransmits):
            self.cancel_retransmit(key)

    def _retransmit_fire(self, key: Hashable) -> None:
        state = self._retransmits.get(key)
        if state is None:
            return
        if not state.still_needed() or state.attempts_left <= 0:
            self.cancel_retransmit(key)
            return
        state.attempts_left -= 1
        self.retransmits_sent += 1
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "party.retransmits", party=self.name, kind=state.kind
            ).inc()
        self.send(state.dst, state.kind, state.rebuild())
        if state.attempts_left <= 0:
            self.cancel_retransmit(key)
            return
        state.delay = min(
            state.delay * self.policy.retransmit_backoff, self.policy.retransmit_cap
        )
        state.event = self.set_timeout(state.delay, lambda: self._retransmit_fire(key))
