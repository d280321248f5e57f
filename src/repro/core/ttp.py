"""The Trusted Third Party — in-line only in Resolve mode (paper §4.3).

Invoked when one party cannot obtain the peer's evidence directly.  On
a valid Resolve request the TTP sends the counterparty a time-stamped
Resolve query and waits; the counterparty's reply (whose evidence is
encrypted to the *requester*, not the TTP) is relayed back embedded in
a RESOLVE_RESULT.  If the counterparty stays silent past the TTP's
time-out, the TTP issues a RESOLVE_FAILED statement — itself signed
evidence that "this session is failed and Bob did not respond".

Two design rules from the paper are enforced mechanically:

* the TTP never stores or forwards bulk data ("normally the size of
  the data set is very large, which is not feasible to be stored
  and/or forwarded by the TTP") — requests with payloads above
  ``policy.ttp_max_payload`` are rejected;
* the TTP acts only when asked: Normal and Abort modes never touch it
  (asserted by the Fig. 6 trace tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.drbg import HmacDrbg
from ..crypto.pki import Identity, KeyRegistry
from ..net.events import ScheduledEvent
from ..net.network import Envelope
from ..errors import ReplayError
from .messages import Flag, TpnrMessage
from .party import TpnrParty, commit_point
from .policy import DEFAULT_POLICY, TpnrPolicy

__all__ = ["TrustedThirdParty"]


@dataclass
class _PendingResolve:
    transaction_id: str
    requester: str
    counterparty: str
    report: str
    data_hash: bytes
    timeout_event: ScheduledEvent


class TrustedThirdParty(TpnrParty):
    """The reliable arbiter-adjacent server of Resolve mode."""

    is_ttp = True  # role marker: analysis derives TTP attribution from this

    def __init__(
        self,
        identity: Identity,
        registry: KeyRegistry,
        rng: HmacDrbg,
        policy: TpnrPolicy = DEFAULT_POLICY,
    ) -> None:
        super().__init__(identity, registry, rng, ttp_name=identity.name, policy=policy)
        self._pending: dict[str, _PendingResolve] = {}
        self.resolves_handled = 0
        self.failures_declared = 0
        self.bulk_rejections = 0
        self.duplicate_requests = 0  # retransmitted requests for in-flight resolves

    def _wipe_role_state(self) -> None:
        # The counters survive (observability); the pending-resolve
        # table dies with the process and is re-opened from the WAL.
        self._pending = {}

    def stats(self) -> dict[str, int]:
        """Deterministic tallies; all-zero on a clean Normal-mode run —
        the off-line-TTP property the throughput experiment asserts."""
        return {
            "resolves_handled": self.resolves_handled,
            "failures_declared": self.failures_declared,
            "bulk_rejections": self.bulk_rejections,
            "duplicate_requests": self.duplicate_requests,
            "pending_resolves": len(self._pending),
            "rejected_messages": len(self.rejected_messages),
        }

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
        if message.data is not None and len(message.data) > self.policy.ttp_max_payload:
            self.bulk_rejections += 1
            self.reject(envelope.kind, "bulk data not accepted by the TTP")
            return
        flag = message.header.flag
        if flag is Flag.RESOLVE_REQUEST:
            self._handle_resolve_request(message)
        elif flag is Flag.RESOLVE_REPLY:
            self._handle_resolve_reply(message)
        else:
            self.reject(envelope.kind, f"unexpected flag {flag.value}")

    # -- requester side --------------------------------------------------------

    def _handle_resolve_request(self, message: TpnrMessage) -> None:
        try:
            opened = self.validate_and_open(message)
        except Exception as exc:
            self.reject("tpnr.resolve.request", f"{type(exc).__name__}: {exc}")
            return
        header = message.header
        counterparty = message.annotation("counterparty")
        if not counterparty:
            self.reject("tpnr.resolve.request", "missing counterparty annotation")
            return
        transaction_id = header.transaction_id
        pending = self._pending.get(transaction_id)
        if pending is not None and pending.requester == header.sender_id:
            # A retransmitted resolve request while the counterparty
            # query is already in flight: absorb it.  Starting a second
            # query would double the TTP's workload and risk issuing
            # two verdicts for one session.
            self.duplicate_requests += 1
            self.archive_evidence(opened)
            return
        self.archive_evidence(opened)  # requester's NRO + anomaly report
        self.resolves_handled += 1
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("ttp.resolves_handled").inc()
        self._open_resolve(
            transaction_id,
            requester=header.sender_id,
            counterparty=counterparty,
            report=message.annotation("report"),
            data_hash=header.data_hash,
        )

    def _open_resolve(
        self,
        transaction_id: str,
        requester: str,
        counterparty: str,
        report: str,
        data_hash: bytes,
    ) -> None:
        """Open (or re-open, after a crash) one pending resolve: journal
        it, query the counterparty, arm the retransmit loop + timeout."""
        self.span_begin(
            ("resolve", transaction_id), transaction_id, "ttp.resolve",
            requester=requester, counterparty=counterparty,
        )
        if self.journal is not None:
            self.journal.log(
                "ttp.pending",
                txn=transaction_id,
                requester=requester,
                counterparty=counterparty,
                report=report,
                data_hash=data_hash,
            )

        def rebuild() -> TpnrMessage:
            # Time-stamped query to the counterparty (§4.3) — fresh
            # header and timestamp on every (re)transmission.
            query_header = self.make_header(
                Flag.RESOLVE_QUERY, counterparty, transaction_id, data_hash
            )
            return self.make_message(
                query_header,
                annotations=(
                    ("requester", requester),
                    ("timestamp", f"{self.now:.6f}"),
                    ("report", report),
                ),
            )

        timeout = self.set_timeout(
            self.policy.ttp_response_timeout,
            lambda: self._on_counterparty_timeout(transaction_id),
        )
        self._pending[transaction_id] = _PendingResolve(
            transaction_id=transaction_id,
            requester=requester,
            counterparty=counterparty,
            report=report,
            data_hash=data_hash,
            timeout_event=timeout,
        )
        self.send(counterparty, "tpnr.resolve.query", rebuild())
        self.arm_retransmit(
            ("query", transaction_id),
            counterparty,
            "tpnr.resolve.query",
            rebuild,
            lambda: transaction_id in self._pending,
        )

    def reopen_resolve(
        self,
        transaction_id: str,
        requester: str,
        counterparty: str,
        report: str,
        data_hash: bytes,
    ) -> None:
        """Crash recovery found this resolve pending in the journal:
        pick it up again with a fresh query and a fresh timeout."""
        if transaction_id in self._pending:
            return
        self._open_resolve(
            transaction_id,
            requester=requester,
            counterparty=counterparty,
            report=report,
            data_hash=data_hash,
        )

    # -- counterparty side ---------------------------------------------------------

    def _handle_resolve_reply(self, message: TpnrMessage) -> None:
        """Relay the counterparty's reply to the requester.

        The reply's evidence is encrypted to the requester, so the TTP
        runs only the header-level checks (addressing, time limit,
        sequence, nonce) and forwards the evidence opaquely.
        """
        header = message.header
        if header.recipient_id != self.name:
            self.reject("tpnr.resolve.reply", "misaddressed reply")
            return
        if self.policy.enforce_time_limit and self.now > header.time_limit:
            self.reject("tpnr.resolve.reply", "reply past its time limit")
            return
        try:
            self.peer_state(header.sender_id).check_receive(
                header.sequence_number,
                header.nonce,
                enforce_sequence=self.policy.enforce_sequence,
                enforce_nonce=self.policy.enforce_nonce,
            )
        except ReplayError as exc:
            self.reject("tpnr.resolve.reply", str(exc))
            return
        pending = self._pending.pop(header.transaction_id, None)
        if pending is None:
            self.reject("tpnr.resolve.reply", f"no pending resolve for {header.transaction_id}")
            return
        pending.timeout_event.cancel()
        self.cancel_retransmit(("query", header.transaction_id))
        self.span_end(("resolve", header.transaction_id), status="relayed")
        if self.journal is not None:
            self.journal.log("ttp.done", txn=header.transaction_id, outcome="relayed")
        result_header = self.make_header(
            Flag.RESOLVE_RESULT, pending.requester, header.transaction_id, header.data_hash
        )
        result = self.make_message(
            result_header,
            annotations=(
                ("action", message.annotation("action")),
                ("counterparty", pending.counterparty),
            ),
        )
        # Embed the counterparty's whole reply so the requester can
        # open the NRR that was encrypted to them.
        result = TpnrMessage(
            header=result.header,
            data=None,
            evidence=result.evidence,
            annotations=result.annotations,
            embedded=(TpnrMessage(header=header, data=None, evidence=message.evidence,
                                  annotations=message.annotations),),
        )
        self.send(pending.requester, "tpnr.resolve.result", result)

    # -- timeout ---------------------------------------------------------------------

    def _on_counterparty_timeout(self, transaction_id: str) -> None:
        pending = self._pending.pop(transaction_id, None)
        if pending is None:
            return
        self.cancel_retransmit(("query", transaction_id))
        self.failures_declared += 1
        self.span_end(("resolve", transaction_id), status="failure-declared")
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("ttp.failures_declared").inc()
        if self.journal is not None:
            self.journal.log("ttp.done", txn=transaction_id, outcome="failure declared")
        failed_header = self.make_header(
            Flag.RESOLVE_FAILED, pending.requester, transaction_id, b"\x00" * 32
        )
        statement = self.make_message(
            failed_header,
            annotations=(
                ("verdict", "session failed: counterparty did not respond"),
                ("counterparty", pending.counterparty),
                ("timestamp", f"{self.now:.6f}"),
            ),
        )
        self.send(pending.requester, "tpnr.resolve.failed", statement)
