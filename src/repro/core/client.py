"""Alice — the TPNR client role (paper §4).

Implements the client side of all three models:

* **Normal** (§4.1, Fig. 6b): two-message upload — Alice sends
  ``data + NRO`` and receives ``NRR``; two-message download — request
  + response.  Off-line TTP: the TTP is never contacted.
* **Abort** (§4.2): Alice may cancel a pending transaction by sending
  the transaction ID with an abort-NRO; Bob answers Accept/Reject with
  an NRR, or Error (regenerate and resubmit — handled automatically,
  once).
* **Resolve** (§4.3): when Bob's response does not arrive within the
  time-out, Alice sends the TTP the transaction ID, her NRO, and an
  anomaly report; the TTP queries Bob in-line and either relays Bob's
  NRR (transaction resolved) or returns a signed failure statement
  (evidence of Bob's non-response).

Every piece of received evidence lands in the evidence store — that is
what Alice brings to the Arbitrator if a dispute arises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..crypto.pki import Identity, KeyRegistry
from ..errors import ProtocolError
from ..net.events import ScheduledEvent
from ..net.network import Envelope
from .evidence import OpenedEvidence, open_evidence
from .messages import Flag, ResolveAction, TpnrMessage
from .party import TpnrParty, commit_point
from .policy import DEFAULT_POLICY, TpnrPolicy
from .transaction import TransactionRecord, TxStatus, new_transaction_id

__all__ = ["TpnrClient", "UploadHandle", "DownloadResult"]


@dataclass
class UploadHandle:
    """Client-side bookkeeping for one upload transaction."""

    transaction_id: str
    provider: str
    data_hash: bytes
    data_size: int
    auto_resolve: bool = True
    timeout_event: ScheduledEvent | None = None
    abort_deadline_event: ScheduledEvent | None = None
    abort_replied: bool = False
    abort_retries_left: int = 1
    pending_abort_after_error: bool = False
    data: bytes | None = None  # retained while restarts remain
    restarts_left: int = 1
    aborting: bool = False  # an abort request is (durably) in flight


@dataclass
class DownloadResult:
    """Outcome of one download attempt."""

    transaction_id: str
    data: bytes | None = None
    verified: bool = False
    tampering_detected: bool = False
    detail: str = ""
    evidence_flags: list[str] = field(default_factory=list)


class TpnrClient(TpnrParty):
    """The user role ("Alice, a company CFO...")."""

    def __init__(
        self,
        identity: Identity,
        registry: KeyRegistry,
        rng: HmacDrbg,
        ttp_name: str = "ttp",
        policy: TpnrPolicy = DEFAULT_POLICY,
    ) -> None:
        super().__init__(identity, registry, rng, ttp_name, policy)
        self.uploads: dict[str, UploadHandle] = {}
        self.downloads: dict[str, DownloadResult] = {}
        self.resolve_outcomes: dict[str, str] = {}
        # Harness hook: called with the DownloadResult once a download
        # reaches a terminal outcome (data verified, tampering found,
        # hash mismatch, or timeout).  The throughput engine uses it to
        # close out a tenant's session without polling.
        self.on_download_complete = None

    def _wipe_role_state(self) -> None:
        # resolve_outcomes survives: it is the harness's notebook, not
        # process state (same rule as the rejection/retransmit counters).
        self.uploads = {}
        self.downloads = {}

    # ------------------------------------------------------------------
    # Upload (Normal mode, message 1 of 2)
    # ------------------------------------------------------------------

    @commit_point
    def upload(
        self,
        provider: str,
        data: bytes,
        auto_resolve: bool = True,
        transaction_id: str | None = None,
    ) -> str:
        """Start an upload transaction; returns the transaction ID.

        Sends ``{header, data, NRO}`` and arms the response time-out.
        Without *transaction_id* the id comes from the network's
        counter, shared by every client of this world; the throughput
        engine names its sessions itself.
        """
        if transaction_id is None:
            transaction_id = new_transaction_id(self.network.transaction_ids)
        elif transaction_id in self.transactions:
            raise ProtocolError(f"transaction {transaction_id!r} already exists")
        data_hash = digest("sha256", data)
        header = self.make_header(Flag.UPLOAD, provider, transaction_id, data_hash)
        message = self.make_message(header, data=data)
        record = TransactionRecord(
            transaction_id=transaction_id,
            role="client",
            peer=provider,
            data_hash=data_hash,
            data_size=len(data),
            started_at=self.now,
        )
        self.transactions[transaction_id] = record
        handle = UploadHandle(
            transaction_id=transaction_id,
            provider=provider,
            data_hash=data_hash,
            data_size=len(data),
            auto_resolve=auto_resolve,
            data=bytes(data),
        )
        self.uploads[transaction_id] = handle
        obs = self.obs
        if obs.enabled:
            # The root span of the transaction's tree: every later
            # phase span (resolve, abort, download, recovery) and every
            # other party's span parents under it via the trace id.
            obs.tracer.start(
                transaction_id, "tpnr.transaction",
                party=self.name, provider=provider, data_size=len(data),
            )
        # Journal the intent (payload included) before the wire sees
        # anything — a crash after this point can re-send the upload.
        self.journal_txn(record)
        if self.journal is not None:
            # The NRO's H(data) names the payload in the blob segment.
            self.journal.blobs.note_digest(handle.data, data_hash)
            self.journal.log(
                "client.upload",
                txn=transaction_id,
                provider=provider,
                data=handle.data,
                data_hash=data_hash,
                data_size=len(data),
                auto_resolve=auto_resolve,
            )
        self.send(provider, "tpnr.upload", message)
        self._arm_upload_retransmit(transaction_id)
        handle.timeout_event = self.set_timeout(
            self.policy.response_timeout, lambda: self._on_upload_timeout(transaction_id)
        )
        return transaction_id

    def _arm_upload_retransmit(self, transaction_id: str) -> None:
        handle = self.uploads[transaction_id]
        record = self.transactions[transaction_id]

        def rebuild() -> TpnrMessage:
            assert handle.data is not None
            header = self.make_header(
                Flag.UPLOAD, handle.provider, transaction_id, handle.data_hash
            )
            return self.make_message(header, data=handle.data)

        self.arm_retransmit(
            ("upload", transaction_id),
            handle.provider,
            "tpnr.upload",
            rebuild,
            lambda: record.status is TxStatus.PENDING and handle.data is not None,
        )

    def resume_upload(self, transaction_id: str) -> None:
        """Re-send an in-flight UPLOAD (fresh sequence number, nonce,
        and time limit; same transaction ID and data) and re-arm its
        retransmit loop + timeout.  Used both for provider-requested
        session restarts and by crash recovery."""
        handle = self.uploads[transaction_id]
        assert handle.data is not None
        record = self.transactions[transaction_id]
        if record.status is not TxStatus.PENDING:
            record.status = TxStatus.PENDING
            self.journal_txn(record)
        self.span_event(transaction_id, "upload.resumed")
        header = self.make_header(Flag.UPLOAD, handle.provider, transaction_id, handle.data_hash)
        message = self.make_message(header, data=handle.data)
        self.send(handle.provider, "tpnr.upload", message)
        self._arm_upload_retransmit(transaction_id)
        handle.timeout_event = self.set_timeout(
            self.policy.response_timeout, lambda: self._on_upload_timeout(transaction_id)
        )

    def _restart_upload(self, transaction_id: str) -> None:
        """Provider asked to restart the session (§4.2 Error path)."""
        self.uploads[transaction_id].restarts_left -= 1
        self.resume_upload(transaction_id)

    def _on_upload_timeout(self, transaction_id: str) -> None:
        record = self.transactions[transaction_id]
        if record.status is not TxStatus.PENDING:
            return
        self.cancel_retransmit(("upload", transaction_id))
        handle = self.uploads[transaction_id]
        self.span_event(transaction_id, "upload.timeout")
        if handle.auto_resolve and self.ttp_name:
            self.start_resolve(transaction_id, report="no upload receipt before time-out")
        else:
            self.finish_txn(record, TxStatus.FAILED, "timeout waiting for NRR")

    # ------------------------------------------------------------------
    # Download (Normal mode)
    # ------------------------------------------------------------------

    @commit_point
    def download(self, transaction_id: str) -> None:
        """Request the data of a completed upload back from Bob."""
        handle = self.uploads.get(transaction_id)
        if handle is None:
            raise ProtocolError(f"no upload known for {transaction_id!r}")
        result = DownloadResult(transaction_id=transaction_id)
        self.downloads[transaction_id] = result
        self.span_begin(("download", transaction_id), transaction_id, "client.download")
        if self.journal is not None:
            self.journal.log("client.download", txn=transaction_id)
        self._send_download_request(transaction_id)
        self.arm_retransmit(
            ("download", transaction_id),
            handle.provider,
            "tpnr.download.request",
            lambda: self._build_download_request(transaction_id),
            lambda: result.data is None and not result.detail,
        )
        self.set_timeout(
            self.policy.response_timeout, lambda: self._on_download_timeout(transaction_id)
        )

    def _build_download_request(self, transaction_id: str) -> TpnrMessage:
        handle = self.uploads[transaction_id]
        header = self.make_header(
            Flag.DOWNLOAD_REQUEST, handle.provider, transaction_id, handle.data_hash
        )
        return self.make_message(header)

    def _send_download_request(self, transaction_id: str) -> None:
        handle = self.uploads[transaction_id]
        self.send(
            handle.provider, "tpnr.download.request", self._build_download_request(transaction_id)
        )

    def _on_download_timeout(self, transaction_id: str) -> None:
        result = self.downloads.get(transaction_id)
        if result is not None and result.data is None and not result.detail:
            self.cancel_retransmit(("download", transaction_id))
            result.detail = "timeout waiting for download response"
            self.span_end(("download", transaction_id), status="timeout")
            if self.on_download_complete is not None:
                self.on_download_complete(result)
            if self.uploads[transaction_id].auto_resolve and self.ttp_name:
                self.start_resolve(transaction_id, report="no download response before time-out")

    # ------------------------------------------------------------------
    # Cross-user sharing (the paper's Alice-uploads / Bob-downloads
    # scenario: "Bob, the company administration chairman, downloads
    # the data from the cloud")
    # ------------------------------------------------------------------

    @commit_point
    def grant(self, transaction_id: str, grantee: str) -> None:
        """Authorize another user to download this transaction.

        Sends a signed GRANT to the provider; the provider records it
        and acknowledges with an NRR, so the grant itself is
        non-repudiable.
        """
        handle = self.uploads.get(transaction_id)
        if handle is None:
            raise ProtocolError(f"no upload known for {transaction_id!r}")
        header = self.make_header(Flag.GRANT, handle.provider, transaction_id, handle.data_hash)
        message = self.make_message(header, annotations=(("grantee", grantee),))
        self.send(handle.provider, "tpnr.grant", message)

    @commit_point
    def import_transaction(
        self,
        transaction_id: str,
        provider: str,
        data_hash: bytes,
        data_size: int = 0,
        shared_receipt: "OpenedEvidence | None" = None,
    ) -> None:
        """Register a transaction someone else uploaded.

        The uploader shares ``(transaction_id, data_hash)`` — and
        ideally her provider-signed NRR (§4.1: "Alice owns the NRR
        signed by Bob, and she can send it to him") — out of band.
        After importing, :meth:`download` works and verifies the served
        bytes against the *uploader's* hash, closing the
        upload-to-download link across users.
        """
        if transaction_id in self.uploads:
            raise ProtocolError(f"transaction {transaction_id!r} already known")
        record = TransactionRecord(
            transaction_id=transaction_id,
            role="client",
            peer=provider,
            status=TxStatus.COMPLETED,
            data_hash=data_hash,
            data_size=data_size,
            started_at=self.now,
            detail="imported from uploader",
        )
        self.transactions[transaction_id] = record
        self.uploads[transaction_id] = UploadHandle(
            transaction_id=transaction_id,
            provider=provider,
            data_hash=data_hash,
            data_size=data_size,
        )
        self.journal_txn(record)
        if self.journal is not None:
            self.journal.log(
                "client.upload",
                txn=transaction_id,
                provider=provider,
                data=None,
                data_hash=data_hash,
                data_size=data_size,
                auto_resolve=True,
            )
        if shared_receipt is not None:
            self.archive_evidence(shared_receipt)

    # ------------------------------------------------------------------
    # Abort (§4.2)
    # ------------------------------------------------------------------

    @commit_point
    def abort(self, transaction_id: str) -> None:
        """Request cancellation: transaction ID + abort-NRO to Bob."""
        handle = self.uploads.get(transaction_id)
        if handle is None:
            raise ProtocolError(f"no upload known for {transaction_id!r}")
        if handle.timeout_event is not None:
            handle.timeout_event.cancel()
        self.cancel_retransmit(("upload", transaction_id))
        record = self.transactions[transaction_id]
        handle.abort_replied = False
        self.span_begin(("abort", transaction_id), transaction_id, "client.abort")
        if not handle.aborting:
            handle.aborting = True
            if self.journal is not None:
                self.journal.log("client.abort", txn=transaction_id)

        def rebuild() -> TpnrMessage:
            header = self.make_header(
                Flag.ABORT, handle.provider, transaction_id, handle.data_hash
            )
            return self.make_message(header)

        self.send(handle.provider, "tpnr.abort", rebuild())
        self.arm_retransmit(
            ("abort", transaction_id),
            handle.provider,
            "tpnr.abort",
            rebuild,
            lambda: record.status is TxStatus.PENDING and not handle.abort_replied,
        )
        if handle.abort_deadline_event is not None:
            handle.abort_deadline_event.cancel()
        handle.abort_deadline_event = self.set_timeout(
            self.policy.response_timeout, lambda: self._on_abort_timeout(transaction_id)
        )

    def _on_abort_timeout(self, transaction_id: str) -> None:
        """No Accept/Reject/Error arrived: stop waiting (§5.5 finite
        termination) — the signed abort-NRO in hand still proves Alice
        tried to cancel."""
        record = self.transactions.get(transaction_id)
        handle = self.uploads.get(transaction_id)
        if record is None or handle is None or handle.abort_replied:
            return
        self.cancel_retransmit(("abort", transaction_id))
        self.span_end(("abort", transaction_id), status="timeout")
        if record.status is TxStatus.PENDING:
            self.finish_txn(record, TxStatus.FAILED, "abort unacknowledged by provider")

    # ------------------------------------------------------------------
    # Resolve (§4.3)
    # ------------------------------------------------------------------

    def start_resolve(self, transaction_id: str, report: str) -> None:
        """Escalate to the TTP with the NRO and an anomaly report."""
        if not self.ttp_name:
            raise ProtocolError("no TTP configured")
        record = self.transactions[transaction_id]
        record.status = TxStatus.RESOLVING
        self.span_begin(
            ("resolve", transaction_id), transaction_id, "client.resolve",
            report=report,
        )
        self.journal_txn(record)

        def rebuild() -> TpnrMessage:
            header = self.make_header(
                Flag.RESOLVE_REQUEST, self.ttp_name, transaction_id, record.data_hash
            )
            return self.make_message(
                header,
                annotations=(("report", report), ("counterparty", record.peer)),
            )

        self.send(self.ttp_name, "tpnr.resolve.request", rebuild())
        self.arm_retransmit(
            ("resolve", transaction_id),
            self.ttp_name,
            "tpnr.resolve.request",
            rebuild,
            lambda: record.status is TxStatus.RESOLVING,
        )
        # Even the resolve request can be lost; bound the wait so the
        # protocol always terminates in finite time (§5.5's fairness
        # requirement: "each party can stop the execution after a
        # finite time").
        budget = self.policy.response_timeout + self.policy.ttp_response_timeout + 1.0
        self.set_timeout(budget, lambda: self._on_resolve_timeout(transaction_id))

    def _on_resolve_timeout(self, transaction_id: str) -> None:
        record = self.transactions.get(transaction_id)
        if record is not None and record.status is TxStatus.RESOLVING:
            self.cancel_retransmit(("resolve", transaction_id))
            self.span_end(("resolve", transaction_id), status="timeout")
            self.finish_txn(record, TxStatus.FAILED, "resolve timed out (TTP unreachable?)")

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
        if flag is Flag.UPLOAD_RECEIPT:
            self._handle_upload_receipt(message, opened)
        elif flag is Flag.DOWNLOAD_RESPONSE:
            self._handle_download_response(message, opened)
        elif flag is Flag.GRANT_ACK:
            self.archive_evidence(opened)  # provider-signed grant receipt
        elif flag in (Flag.ABORT_ACCEPT, Flag.ABORT_REJECT, Flag.ABORT_ERROR):
            self._handle_abort_reply(message, opened)
        elif flag is Flag.RESOLVE_RESULT:
            self._handle_resolve_result(message, opened)
        elif flag is Flag.RESOLVE_FAILED:
            self._handle_resolve_failed(message, opened)
        else:
            self.reject(envelope.kind, f"unexpected flag {flag.value}")

    # -- handlers -------------------------------------------------------------

    def _handle_upload_receipt(self, message: TpnrMessage, opened) -> None:
        transaction_id = message.header.transaction_id
        record = self.transactions.get(transaction_id)
        handle = self.uploads.get(transaction_id)
        if record is None or handle is None:
            self.reject("tpnr.upload.receipt", f"unknown transaction {transaction_id}")
            return
        if message.header.data_hash != handle.data_hash:
            # Bob acknowledged different bytes than Alice sent.
            self.reject("tpnr.upload.receipt", "NRR hash mismatch")
            return
        self.archive_evidence(opened)  # the NRR
        if record.status in (TxStatus.PENDING, TxStatus.RESOLVING):
            if handle.timeout_event is not None:
                handle.timeout_event.cancel()
            self.cancel_retransmit(("upload", transaction_id))
            self.cancel_retransmit(("resolve", transaction_id))
            handle.data = None  # no restarts needed anymore
            self.span_end(("resolve", transaction_id), status="ok")
            self.finish_txn(record, TxStatus.COMPLETED)

    def _handle_download_response(self, message: TpnrMessage, opened) -> None:
        transaction_id = message.header.transaction_id
        result = self.downloads.get(transaction_id)
        handle = self.uploads.get(transaction_id)
        if result is None or handle is None:
            self.reject("tpnr.download.response", f"unknown transaction {transaction_id}")
            return
        self.cancel_retransmit(("download", transaction_id))
        self.archive_evidence(opened)  # Bob's NRR over what he served
        result.evidence_flags.append(message.header.flag.value)
        data = message.data or b""
        served_hash = digest("sha256", data)
        if served_hash != message.header.data_hash:
            # Transmission integrity failure — not (yet) a dispute.
            result.detail = "served data does not match its own signed hash"
            self._journal_download_result(result)
            self.span_end(("download", transaction_id), status="hash-mismatch")
            if self.on_download_complete is not None:
                self.on_download_complete(result)
            return
        result.data = data
        if served_hash == handle.data_hash:
            result.verified = True
            result.detail = "upload-to-download integrity verified"
        else:
            # The critical missing link, now closed: the data Bob
            # served (and signed!) differs from what he acknowledged at
            # upload.  Alice holds both NRRs -> arbitration-ready.
            result.tampering_detected = True
            result.detail = "stored data differs from uploaded data (evidence retained)"
        # The verdict must be durable before Bob learns we have the
        # bytes — the ack is what stops his serve retransmits.
        self._journal_download_result(result, served_hash)
        # Acknowledge receipt so Bob also ends with download evidence.
        ack_header = self.make_header(
            Flag.DOWNLOAD_ACK, handle.provider, transaction_id, served_hash
        )
        self.send(handle.provider, "tpnr.download.ack", self.make_message(ack_header))
        self.span_end(
            ("download", transaction_id),
            status="tampering-detected" if result.tampering_detected else "ok",
        )
        if self.on_download_complete is not None:
            self.on_download_complete(result)

    def _journal_download_result(
        self, result: DownloadResult, served_hash: bytes | None = None
    ) -> None:
        if self.journal is not None:
            if served_hash is not None:
                # The provider signed H(served bytes); it names the blob.
                self.journal.blobs.note_digest(result.data, served_hash)
            self.journal.log(
                "client.download.result",
                txn=result.transaction_id,
                data=result.data,
                verified=result.verified,
                tampering=result.tampering_detected,
                detail=result.detail,
                flags=list(result.evidence_flags),
            )

    def _handle_abort_reply(self, message: TpnrMessage, opened) -> None:
        transaction_id = message.header.transaction_id
        record = self.transactions.get(transaction_id)
        handle = self.uploads.get(transaction_id)
        if record is None or handle is None:
            self.reject("tpnr.abort.reply", f"unknown transaction {transaction_id}")
            return
        self.archive_evidence(opened)
        handle.abort_replied = True
        self.cancel_retransmit(("abort", transaction_id))
        if handle.abort_deadline_event is not None:
            handle.abort_deadline_event.cancel()
            handle.abort_deadline_event = None
        flag = message.header.flag
        if flag is Flag.ABORT_ACCEPT:
            handle.aborting = False
            self.span_end(("abort", transaction_id), status="accepted")
            if record.status is TxStatus.PENDING:
                self.finish_txn(record, TxStatus.ABORTED, "abort accepted")
        elif flag is Flag.ABORT_REJECT:
            handle.aborting = False
            record.detail = "abort rejected by provider"
            self.span_end(("abort", transaction_id), status="rejected")
        else:  # ABORT_ERROR: double-check parameters, regenerate, resubmit
            if handle.abort_retries_left > 0:
                handle.abort_retries_left -= 1
                self.abort(transaction_id)
            elif record.status is TxStatus.PENDING:
                self.span_end(("abort", transaction_id), status="failed")
                self.finish_txn(record, TxStatus.FAILED, "abort failed after retry")
            else:
                record.detail = "abort failed after retry"
                self.span_end(("abort", transaction_id), status="failed")

    def _handle_resolve_result(self, message: TpnrMessage, opened) -> None:
        """TTP relayed Bob's answer; the embedded NRR restores fairness."""
        transaction_id = message.header.transaction_id
        record = self.transactions.get(transaction_id)
        if record is None:
            self.reject("tpnr.resolve.result", f"unknown transaction {transaction_id}")
            return
        self.archive_evidence(opened)
        # Open the embedded counterparty reply — its evidence (the NRR)
        # was encrypted to us even though it travelled via the TTP.
        for relayed in message.embedded:
            try:
                embedded_evidence = open_evidence(
                    self.identity,
                    self.registry.lookup(relayed.header.sender_id),
                    relayed.header.sender_id,
                    relayed.header,
                    relayed.evidence,
                )
            except Exception as exc:
                self.reject("tpnr.resolve.result", f"embedded evidence invalid: {exc}")
                continue
            self.archive_evidence(embedded_evidence)
        action = message.annotation("action", ResolveAction.CONTINUE.value)
        self.resolve_outcomes[transaction_id] = action
        self.cancel_retransmit(("resolve", transaction_id))
        if record.status is not TxStatus.RESOLVING:
            return
        self.span_end(("resolve", transaction_id), status=f"result:{action}")
        handle = self.uploads.get(transaction_id)
        if action == ResolveAction.CONTINUE.value:
            self.finish_txn(record, TxStatus.RESOLVED, "resolved via TTP: provider continued")
        elif action == ResolveAction.RESTART.value:
            if handle is not None and handle.data is not None and handle.restarts_left > 0:
                self._restart_upload(transaction_id)
            else:
                self.finish_txn(record, TxStatus.FAILED, "provider requested session restart")
        else:
            self.finish_txn(record, TxStatus.FAILED, f"provider action: {action}")

    def _handle_resolve_failed(self, message: TpnrMessage, opened) -> None:
        """TTP statement: Bob never answered — signed evidence for Alice."""
        transaction_id = message.header.transaction_id
        record = self.transactions.get(transaction_id)
        if record is None:
            self.reject("tpnr.resolve.failed", f"unknown transaction {transaction_id}")
            return
        self.archive_evidence(opened)  # the TTP's signed failure statement
        self.resolve_outcomes[transaction_id] = "failed: provider unresponsive"
        self.cancel_retransmit(("resolve", transaction_id))
        if record.status is TxStatus.RESOLVING:
            self.span_end(("resolve", transaction_id), status="ttp-failure-statement")
            self.finish_txn(record, TxStatus.FAILED, "TTP: provider did not respond")
