"""Retransmission hardening of the TPNR roles.

Unacknowledged messages are rebuilt (fresh sequence number, nonce, and
time limit) and re-sent with capped exponential backoff; receivers
answer duplicates idempotently; exhausted budgets escalate to
Abort/Resolve instead of hanging.  These tests pin the mechanism at
every layer: the backoff schedule itself, recovery without the TTP,
escalation when recovery is impossible, and the duplicate-suppression
counters that prove no evidence is double-issued along the way.
"""

import pytest

from repro.core.policy import DEFAULT_POLICY, TpnrPolicy
from repro.core.protocol import make_deployment, run_abort, run_download, run_session, run_upload
from repro.core.transaction import TxStatus
from repro.errors import ProtocolError
from repro.net.adversary import Adversary

PAYLOAD = b"retransmission payload " * 4


class KindEater(Adversary):
    """Drops the first *budget* messages of the given kind."""

    def __init__(self, kind, budget=1):
        super().__init__(name=f"eater/{kind}")
        self.kind = kind
        self.budget = budget
        self.eaten = 0

    def on_intercept(self, envelope):
        self.seen.append(envelope)
        if envelope.kind == self.kind and self.eaten < self.budget:
            self.eaten += 1
            self.drop(envelope)
        else:
            self.forward(envelope)


def eat(dep, kind, budget=1):
    eater = KindEater(kind, budget)
    dep.network.install_adversary(eater)
    return eater


# ---------------------------------------------------------------------------
# Policy knobs
# ---------------------------------------------------------------------------


class TestPolicyKnobs:
    def test_defaults_fit_inside_response_timeout(self):
        # Retransmits at 0.6, 1.8, 4.2s — all before the 5.0s timeout,
        # so the whole budget is spent before escalation.
        p = DEFAULT_POLICY
        fire, delay = 0.0, p.retransmit_initial
        for _ in range(p.max_retransmits):
            fire += delay
            delay = min(delay * p.retransmit_backoff, p.retransmit_cap)
        assert fire < p.response_timeout

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ProtocolError):
            TpnrPolicy(max_retransmits=-1)
        with pytest.raises(ProtocolError):
            TpnrPolicy(retransmit_initial=0.0)
        with pytest.raises(ProtocolError):
            TpnrPolicy(retransmit_backoff=0.5)
        with pytest.raises(ProtocolError):
            TpnrPolicy(retransmit_initial=1.0, retransmit_cap=0.5)


# ---------------------------------------------------------------------------
# Upload path
# ---------------------------------------------------------------------------


class TestUploadRetransmission:
    def test_perfect_channel_sends_no_retransmits(self):
        dep = make_deployment(seed=b"rtx-perfect")
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.COMPLETED
        assert outcome.steps == 2  # the Fig. 6(b) two-step flow, untouched
        assert dep.client.retransmits_sent == 0

    def test_lost_upload_recovered_without_ttp(self):
        dep = make_deployment(seed=b"rtx-upload-1")
        eat(dep, "tpnr.upload", budget=1)
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.COMPLETED
        assert not outcome.ttp_involved
        assert dep.client.retransmits_sent == 1

    def test_lost_receipt_recovered_without_ttp(self):
        # The receipt is dropped; Alice retransmits the upload; Bob
        # answers the duplicate idempotently with a fresh receipt.
        dep = make_deployment(seed=b"rtx-receipt-1")
        eat(dep, "tpnr.upload.receipt", budget=1)
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.COMPLETED
        assert not outcome.ttp_involved
        assert dep.provider.duplicate_requests >= 1

    def test_duplicate_upload_not_restored(self):
        # The idempotent duplicate path must not re-store the blob.
        dep = make_deployment(seed=b"rtx-receipt-2")
        eat(dep, "tpnr.upload.receipt", budget=1)
        run_upload(dep, PAYLOAD)
        assert dep.provider.store.put_count == 1

    def test_backoff_schedule_visible_in_trace(self):
        dep = make_deployment(seed=b"rtx-backoff")
        eat(dep, "tpnr.upload.receipt", budget=10)  # swallow every receipt
        run_upload(dep, PAYLOAD, auto_resolve=False)
        sends = [e.time for e in dep.network.trace.sends("tpnr.upload")
                 if e.kind == "tpnr.upload"]
        p = dep.client.policy
        expected = [0.0, p.retransmit_initial]
        delay = p.retransmit_initial
        for _ in range(p.max_retransmits - 1):
            delay = min(delay * p.retransmit_backoff, p.retransmit_cap)
            expected.append(expected[-1] + delay)
        assert sends == pytest.approx(expected)

    def test_exhausted_budget_escalates_to_resolve(self):
        # Bob is unreachable for uploads; after 1+3 attempts the client
        # escalates to the TTP, which asks Bob directly (restart path).
        dep = make_deployment(seed=b"rtx-exhaust")
        eat(dep, "tpnr.upload", budget=4)
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.ttp_involved
        assert outcome.upload_status is TxStatus.COMPLETED  # restarted + completed
        assert dep.client.retransmits_sent >= dep.client.policy.max_retransmits

    def test_zero_retransmit_policy_goes_straight_to_resolve(self):
        policy = TpnrPolicy(max_retransmits=0)
        dep = make_deployment(seed=b"rtx-none", policy=policy)
        eat(dep, "tpnr.upload", budget=1)
        outcome = run_upload(dep, PAYLOAD)
        assert dep.client.retransmits_sent == 0
        assert outcome.ttp_involved

    def test_no_duplicate_completion_from_duplicate_receipts(self):
        # Two receipts (original + idempotent re-issue) must finish the
        # transaction exactly once; TransactionRecord.finish raises on
        # a second terminal transition, so completion itself is the
        # assertion.
        dep = make_deployment(seed=b"rtx-dup-finish")

        class ReceiptDelayer(Adversary):
            def on_intercept(self, envelope):
                self.seen.append(envelope)
                if envelope.kind == "tpnr.upload.receipt" and len(self.seen) < 4:
                    # hold the receipt until after the first retransmit
                    self.replay_later(envelope, 1.0)
                else:
                    self.forward(envelope)

        dep.network.install_adversary(ReceiptDelayer())
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.COMPLETED


# ---------------------------------------------------------------------------
# Download path
# ---------------------------------------------------------------------------


class TestDownloadRetransmission:
    def _completed(self, seed):
        dep = make_deployment(seed=seed)
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.COMPLETED
        return dep, outcome.transaction_id

    def test_lost_request_recovered(self, ):
        dep, txn = self._completed(b"rtx-dl-1")
        eat(dep, "tpnr.download.request", budget=1)
        result = run_download(dep, txn)
        assert result.verified

    def test_lost_response_recovered_by_server_retransmit(self):
        dep, txn = self._completed(b"rtx-dl-2")
        eat(dep, "tpnr.download.response", budget=1)
        result = run_download(dep, txn)
        assert result.verified
        assert dep.provider.retransmits_sent >= 1

    def test_lost_ack_recovered(self):
        # The final ack is dropped; Bob re-serves; Alice re-acks; Bob
        # ends holding download evidence all the same.
        dep, txn = self._completed(b"rtx-dl-3")
        eat(dep, "tpnr.download.ack", budget=1)
        result = run_download(dep, txn)
        assert result.verified
        acked = [e for e in dep.provider.evidence_store.for_transaction(txn)
                 if e.header.flag.value == "DOWNLOAD_ACK"]
        assert acked

    def test_server_stops_retransmitting_after_ack(self):
        dep, txn = self._completed(b"rtx-dl-4")
        run_download(dep, txn)
        # Quiescence with zero provider retransmits: the ack cancelled
        # the serve loop before its first firing.
        assert dep.provider.retransmits_sent == 0
        assert dep.sim.pending() == 0


# ---------------------------------------------------------------------------
# Abort and Resolve paths
# ---------------------------------------------------------------------------


class TestAbortResolveRetransmission:
    def test_lost_abort_retransmitted_and_aborted(self):
        # Provider withholds the receipt; the abort's first copy is
        # lost; the retransmitted abort still cancels the transaction.
        from repro.core.provider import ProviderBehavior

        dep = make_deployment(
            seed=b"rtx-abort-1",
            behavior=ProviderBehavior(silent_on_upload=True),
        )
        eat(dep, "tpnr.abort", budget=1)
        outcome = run_abort(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.ABORTED
        assert not outcome.ttp_involved

    def test_abort_unacknowledged_fails_finitely(self):
        from repro.core.provider import ProviderBehavior

        dep = make_deployment(
            seed=b"rtx-abort-2",
            behavior=ProviderBehavior(silent_on_upload=True),
        )
        eat(dep, "tpnr.abort", budget=100)  # Bob never sees any abort
        outcome = run_abort(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.FAILED
        assert "abort unacknowledged" in outcome.upload_detail
        assert dep.sim.pending() == 0

    def test_lost_resolve_request_recovered(self):
        from repro.core.provider import ProviderBehavior

        dep = make_deployment(
            seed=b"rtx-resolve-1",
            behavior=ProviderBehavior(silent_on_upload=True),
        )
        eat(dep, "tpnr.resolve.request", budget=1)
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.RESOLVED
        assert dep.ttp.resolves_handled == 1

    def test_duplicate_resolve_requests_absorbed_by_ttp(self):
        from repro.core.provider import ProviderBehavior

        # Bob stonewalls the TTP: the resolve query goes unanswered for
        # the full ttp_response_timeout, so every client retransmission
        # of the resolve request arrives while the resolve is pending.
        dep = make_deployment(
            seed=b"rtx-resolve-2",
            behavior=ProviderBehavior(silent_on_upload=True, silent_to_ttp=True),
        )
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.FAILED
        assert dep.ttp.resolves_handled == 1
        assert dep.ttp.duplicate_requests >= 1
        assert dep.ttp.failures_declared == 1

    def test_lost_resolve_query_recovered_by_ttp_retransmit(self):
        from repro.core.provider import ProviderBehavior

        dep = make_deployment(
            seed=b"rtx-resolve-3",
            behavior=ProviderBehavior(silent_on_upload=True),
        )
        eat(dep, "tpnr.resolve.query", budget=1)
        outcome = run_upload(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.RESOLVED
        assert dep.ttp.retransmits_sent >= 1
        assert dep.ttp.failures_declared == 0


# ---------------------------------------------------------------------------
# Full sessions under sustained loss
# ---------------------------------------------------------------------------


class TestSessionUnderLoss:
    def test_full_session_survives_single_losses_everywhere(self):
        class FirstOfEach(Adversary):
            """Drops the first occurrence of every tpnr kind."""

            def __init__(self):
                super().__init__(name="first-of-each")
                self.hit: set[str] = set()

            def on_intercept(self, envelope):
                self.seen.append(envelope)
                if envelope.kind.startswith("tpnr.") and envelope.kind not in self.hit:
                    self.hit.add(envelope.kind)
                    self.drop(envelope)
                else:
                    self.forward(envelope)

        dep = make_deployment(seed=b"rtx-session")
        dep.network.install_adversary(FirstOfEach())
        outcome = run_session(dep, PAYLOAD)
        assert outcome.upload_status is TxStatus.COMPLETED
        assert outcome.download is not None and outcome.download.verified
        assert dep.sim.pending() == 0


class TestRestartRecovery:
    def test_lost_upload_recovered_by_restart(self):
        """A dropped UPLOAD is recovered via resolve -> RESTART -> resend."""
        from repro.core import TxStatus, make_deployment, run_upload
        from repro.net.adversary import Adversary

        class FirstUploadEater(Adversary):
            def __init__(self):
                super().__init__()
                self.eaten = 0

            def on_intercept(self, envelope):
                self.seen.append(envelope)
                if envelope.kind == "tpnr.upload" and self.eaten == 0:
                    self.eaten += 1
                    self.drop(envelope)
                else:
                    self.forward(envelope)

        dep = make_deployment(seed=b"wl-restart")
        dep.network.install_adversary(FirstUploadEater())
        outcome = run_upload(dep, b"recover me " * 8)
        assert outcome.upload_status is TxStatus.COMPLETED

    def test_unreachable_ttp_terminates_finitely(self):
        from repro.core import ProviderBehavior, TxStatus, make_deployment, run_upload
        from repro.net.adversary import Adversary

        class TtpBlackhole(Adversary):
            def on_intercept(self, envelope):
                self.seen.append(envelope)
                if "ttp" in (envelope.src, envelope.dst):
                    self.drop(envelope)
                else:
                    self.forward(envelope)

        dep = make_deployment(seed=b"wl-ttp-dead",
                              behavior=ProviderBehavior(silent_on_upload=True))
        dep.network.install_adversary(TtpBlackhole())
        outcome = run_upload(dep, b"x")
        assert outcome.upload_status is TxStatus.FAILED
        assert "timed out" in outcome.upload_detail
        assert dep.sim.pending() == 0
