"""Bob — the TPNR cloud-storage-provider role (paper §4).

An honest Bob verifies each upload's hash and NRO, stores the data,
and answers with an NRR; serves downloads with a fresh NRR over exactly
the bytes he returns; answers Abort requests; and replies to TTP
Resolve queries.

:class:`ProviderBehavior` configures the *dishonest* variants the
paper's scenarios need: the silent provider that pockets the NRO and
never sends the NRR (the fairness attack the Resolve model exists
for), the provider that tampers with stored data (Fig. 5 / the
Eve-tampers dispute), and the provider that stonewalls the TTP.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.pki import Identity, KeyRegistry
from ..errors import NoSuchObjectError
from ..net.network import Envelope
from ..storage.blobstore import BlobStore
from ..storage.tamper import TamperMode, apply_tamper
from .messages import Flag, ResolveAction, TpnrMessage
from .party import TpnrParty, commit_point
from .policy import DEFAULT_POLICY, TpnrPolicy
from .transaction import TransactionRecord, TxStatus

__all__ = ["ProviderBehavior", "TpnrProvider"]

_CONTAINER = "tpnr-data"


@dataclass(frozen=True)
class ProviderBehavior:
    """Dishonesty knobs; the default is a fully honest provider."""

    silent_on_upload: bool = False  # keep NRO, never send NRR (unfairness)
    silent_on_download: bool = False
    silent_to_ttp: bool = False  # ignore Resolve queries
    reject_abort: bool = False
    tamper_mode: TamperMode = TamperMode.NONE  # applied after upload completes
    resolve_action: ResolveAction = ResolveAction.CONTINUE


HONEST = ProviderBehavior()


class TpnrProvider(TpnrParty):
    """The cloud storage provider role ("Eve"/"Bob" in the paper)."""

    def __init__(
        self,
        identity: Identity,
        registry: KeyRegistry,
        rng: HmacDrbg,
        ttp_name: str = "ttp",
        policy: TpnrPolicy = DEFAULT_POLICY,
        behavior: ProviderBehavior = HONEST,
    ) -> None:
        super().__init__(identity, registry, rng, ttp_name, policy)
        self.behavior = behavior
        self.store = BlobStore(f"{identity.name}/store")
        self.withheld_receipts: list[str] = []  # txns where NRR was withheld
        self.grants: dict[str, set[str]] = {}  # txn -> authorized downloaders
        self.duplicate_requests = 0  # retransmitted uploads answered idempotently
        self._download_acked: set[tuple[str, str]] = set()  # (txn, requester)

    def stats(self) -> dict[str, int]:
        """Deterministic service-side tallies for engine/experiment reports."""
        stored = self.store.object_marks()
        return {
            "transactions": len(self.transactions),
            "stored_blobs": sum(1 for txn in self.transactions if (_CONTAINER, txn) in stored),
            "duplicate_requests": self.duplicate_requests,
            "withheld_receipts": len(self.withheld_receipts),
            "rejected_messages": len(self.rejected_messages),
            "retransmits_sent": self.retransmits_sent,
            "evidence_held": len(self.evidence_store),
        }

    def _wipe_role_state(self) -> None:
        # withheld_receipts / duplicate_requests survive: observability.
        self.store = BlobStore(f"{self.name}/store")
        self.grants = {}
        self._download_acked = set()

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------

    @commit_point
    def on_message(self, envelope: Envelope) -> None:
        if self.corrupted_inbound(envelope):
            return
        message = envelope.payload
        if not isinstance(message, TpnrMessage):
            self.reject(envelope.kind, "not a TPNR message")
            return
        try:
            opened = self.validate_and_open(message)
        except Exception as exc:
            self.reject(envelope.kind, f"{type(exc).__name__}: {exc}")
            return
        flag = message.header.flag
        if flag is Flag.UPLOAD:
            self._handle_upload(message, opened)
        elif flag is Flag.DOWNLOAD_REQUEST:
            self._handle_download_request(message, opened)
        elif flag is Flag.DOWNLOAD_ACK:
            self.archive_evidence(opened)
            self._download_acked.add(
                (message.header.transaction_id, message.header.sender_id)
            )
            self.cancel_retransmit(
                ("serve", message.header.transaction_id, message.header.sender_id)
            )
            self.span_event(message.header.transaction_id, "download.acked",
                            requester=message.header.sender_id)
        elif flag is Flag.GRANT:
            self._handle_grant(message, opened)
        elif flag is Flag.ABORT:
            self._handle_abort(message, opened)
        elif flag is Flag.RESOLVE_QUERY:
            self._handle_resolve_query(message, opened)
        else:
            self.reject(envelope.kind, f"unexpected flag {flag.value}")

    # -- upload ---------------------------------------------------------------

    def _handle_upload(self, message: TpnrMessage, opened) -> None:
        header = message.header
        data = message.data or b""
        if digest("sha256", data) != header.data_hash:
            # "Service Provider verifies the data with MD5; if it is
            # valid..." — here with SHA-256; invalid uploads are refused.
            self.reject("tpnr.upload", "payload hash mismatch")
            return
        transaction_id = header.transaction_id
        existing = self.transactions.get(transaction_id)
        if existing is None:
            self.span_begin(
                ("store", transaction_id), transaction_id, "provider.upload",
                data_size=len(data),
            )
        if existing is not None:
            if existing.data_hash != header.data_hash:
                self.reject("tpnr.upload", "transaction ID reuse with different data")
                return
            # A retransmission of an upload we already hold: answer
            # idempotently.  Never re-store (that would overwrite the
            # at-rest blob — including any post-upload state the client
            # must be able to dispute) and never re-issue the receipt's
            # transaction state; just repeat the NRR so the sender can
            # stop retransmitting.
            self.duplicate_requests += 1
            obs = self.obs
            if obs.enabled:
                obs.metrics.counter(
                    "party.duplicates_answered", party=self.name
                ).inc()
            self.span_event(transaction_id, "upload.duplicate")
            self.archive_evidence(opened)  # a fresh NRO is still evidence
            if existing.status is TxStatus.ABORTED or self.behavior.silent_on_upload:
                return
            self._send_upload_receipt(transaction_id)
            return
        self.archive_evidence(opened)  # Alice's NRO
        # H(data) was just verified over these bytes: the store's
        # trusted log takes it instead of hashing them again.
        stored = self.store.put(_CONTAINER, transaction_id, data, at_time=self.now,
                                sha256=header.data_hash)
        record = TransactionRecord(
            transaction_id=transaction_id,
            role="provider",
            peer=header.sender_id,
            data_hash=header.data_hash,
            data_size=len(data),
            started_at=self.now,
        )
        self.transactions[transaction_id] = record
        if self.behavior.tamper_mode is not TamperMode.NONE:
            stored = apply_tamper(self.store, _CONTAINER, transaction_id,
                                  self.behavior.tamper_mode, self.rng)
        # Journal what the disk actually holds (post-tamper: the WAL
        # witnesses the storage layer, it does not launder it honest)
        # before the receipt can be issued: the object the write or
        # the tamper returned, so nothing is read back.
        self.journal_txn(record)
        if self.journal is not None:
            self.journal.blobs.note_digest(data, header.data_hash)
            self.journal.log(
                "provider.blob",
                txn=transaction_id,
                container=_CONTAINER,
                key=transaction_id,
                data=stored.data,
            )
        if self.behavior.silent_on_upload:
            # Bob pockets the NRO and never answers — the unfair move
            # the Resolve sub-protocol exists to punish.
            self.withheld_receipts.append(transaction_id)
            self.span_end(("store", transaction_id), status="receipt-withheld")
            return
        self._send_upload_receipt(transaction_id)
        self.finish_txn(record, TxStatus.COMPLETED)
        self.span_end(("store", transaction_id), status="ok")

    def _send_upload_receipt(self, transaction_id: str) -> None:
        record = self.transactions[transaction_id]
        receipt_header = self.make_header(
            Flag.UPLOAD_RECEIPT, record.peer, transaction_id, record.data_hash
        )
        self.send(record.peer, "tpnr.upload.receipt", self.make_message(receipt_header))

    # -- download ----------------------------------------------------------------

    def _handle_grant(self, message: TpnrMessage, opened) -> None:
        """Record a signed access grant from the transaction's owner."""
        transaction_id = message.header.transaction_id
        record = self.transactions.get(transaction_id)
        if record is None or record.peer != message.header.sender_id:
            self.reject("tpnr.grant", "grant not from the transaction owner")
            return
        grantee = message.annotation("grantee")
        if not grantee:
            self.reject("tpnr.grant", "grant missing grantee")
            return
        self.archive_evidence(opened)  # owner-signed grant (non-repudiable)
        self.grants.setdefault(transaction_id, set()).add(grantee)
        if self.journal is not None:
            self.journal.log("provider.grant", txn=transaction_id, grantee=grantee)
        ack_header = self.make_header(
            Flag.GRANT_ACK, record.peer, transaction_id, record.data_hash
        )
        self.send(record.peer, "tpnr.grant.ack",
                  self.make_message(ack_header, annotations=(("grantee", grantee),)))

    def _handle_download_request(self, message: TpnrMessage, opened) -> None:
        transaction_id = message.header.transaction_id
        record = self.transactions.get(transaction_id)
        if record is None:
            self.reject("tpnr.download.request", f"unknown transaction {transaction_id}")
            return
        requester = message.header.sender_id
        if requester != record.peer and requester not in self.grants.get(transaction_id, ()):
            self.reject("tpnr.download.request",
                        f"{requester} is not authorized for {transaction_id}")
            return
        self.archive_evidence(opened)  # the requester's download NRO
        if self.behavior.silent_on_download:
            self.withheld_receipts.append(transaction_id)
            return
        requester = message.header.sender_id
        # The serve span covers building + sending the response; the
        # requester's ack lands later as a root-span event (the ack may
        # never come, and a span must not stay open on a maybe).
        serve_span = self.span_begin(
            ("serve", transaction_id, requester), transaction_id,
            "provider.serve", requester=requester,
        )
        self._download_acked.discard((transaction_id, requester))
        self._serve_download(transaction_id, requester)
        if serve_span is not None:
            self.span_end(("serve", transaction_id, requester), status="ok")
        self.arm_retransmit(
            ("serve", transaction_id, requester),
            requester,
            "tpnr.download.response",
            lambda: self._build_download_response(transaction_id, requester),
            lambda: (transaction_id, requester) not in self._download_acked,
        )

    def _build_download_response(self, transaction_id: str, requester: str) -> TpnrMessage:
        try:
            served = self.store.get(_CONTAINER, transaction_id).data
        except NoSuchObjectError:
            # The blob did not survive (its durable copy was damaged
            # before a crash): serve nothing, signed as such, so the
            # requester's check fails and the loss is ours to answer for.
            served = b""
        # Bob signs the hash of *exactly what he serves* — an honest
        # signature over possibly-tampered bytes, which is precisely
        # what lets the Arbitrator attribute fault later.
        response_header = self.make_header(
            Flag.DOWNLOAD_RESPONSE,
            requester,
            transaction_id,
            digest("sha256", served),
        )
        return self.make_message(response_header, data=served)

    def _serve_download(self, transaction_id: str, requester: str) -> None:
        self.send(
            requester,
            "tpnr.download.response",
            self._build_download_response(transaction_id, requester),
        )

    # -- abort (§4.2) ---------------------------------------------------------------

    def _handle_abort(self, message: TpnrMessage, opened) -> None:
        transaction_id = message.header.transaction_id
        client = message.header.sender_id
        record = self.transactions.get(transaction_id)
        if record is None or record.data_hash != message.header.data_hash:
            # Inconsistent request: ask Alice to double-check the
            # parameters, regenerate, and resubmit (§4.2).
            error_header = self.make_header(
                Flag.ABORT_ERROR, client, transaction_id, message.header.data_hash
            )
            self.send(client, "tpnr.abort.reply", self.make_message(error_header))
            return
        self.archive_evidence(opened)  # the abort NRO
        decision_flag = Flag.ABORT_REJECT if self.behavior.reject_abort else Flag.ABORT_ACCEPT
        if decision_flag is Flag.ABORT_ACCEPT and record.status is TxStatus.PENDING:
            # Log-before-act: the abort must be durable before Alice
            # can hold an ABORT_ACCEPT we might later deny.
            self.finish_txn(record, TxStatus.ABORTED, "abort accepted")
        elif decision_flag is Flag.ABORT_ACCEPT and record.status is TxStatus.COMPLETED:
            # Upload already finished on Bob's side; record the abort
            # agreement without rewriting history.
            record.detail = "abort accepted post-completion"
        reply_header = self.make_header(decision_flag, client, transaction_id, record.data_hash)
        self.send(client, "tpnr.abort.reply", self.make_message(reply_header))

    # -- resolve (§4.3) -----------------------------------------------------------------

    def _handle_resolve_query(self, message: TpnrMessage, opened) -> None:
        """The TTP asks on Alice's behalf; answer through the TTP."""
        transaction_id = message.header.transaction_id
        self.archive_evidence(opened)  # TTP's signed query (with timestamp)
        if self.behavior.silent_to_ttp:
            return
        client = message.annotation("requester")
        record = self.transactions.get(transaction_id)
        if record is None:
            action = ResolveAction.RESTART  # never saw the upload: restart session
            data_hash = message.header.data_hash
        elif client != record.peer and client not in self.grants.get(transaction_id, ()):
            # A stranger must not be able to extract an NRR (or even
            # the data hash) for someone else's transaction by filing
            # a resolve request with the TTP.
            action = ResolveAction.REFUSE
            data_hash = message.header.data_hash
        else:
            action = self.behavior.resolve_action
            data_hash = record.data_hash
        # The NRR must be readable by *Alice*, so it is encrypted to
        # her even though the message travels via the TTP.
        reply_header = self.make_header(
            Flag.RESOLVE_REPLY, self.ttp_name, transaction_id, data_hash
        )
        reply = self.make_message(
            reply_header,
            annotations=(("action", action.value), ("requester", client)),
            evidence_recipient=client if client else None,
        )
        self.send(self.ttp_name, "tpnr.resolve.reply", reply)
        if record is not None and record.status is TxStatus.PENDING:
            self.finish_txn(record, TxStatus.RESOLVED, "resolved via TTP")
