"""Workload generation and the resilience sweep."""

import pytest

from repro.analysis.workload import WorkloadSpec, resilience_sweep, run_workload
from repro.core.provider import ProviderBehavior
from repro.errors import ProtocolError
from repro.net.channel import ChannelSpec
from repro.storage.tamper import TamperMode


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = WorkloadSpec()
        assert spec.total_transactions == spec.n_clients * spec.transactions_per_client

    def test_zero_clients(self):
        with pytest.raises(ProtocolError):
            WorkloadSpec(n_clients=0)

    def test_bad_payload_range(self):
        with pytest.raises(ProtocolError):
            WorkloadSpec(min_payload=100, max_payload=10)

    def test_negative_window(self):
        with pytest.raises(ProtocolError):
            WorkloadSpec(arrival_window=-1.0)


class TestHonestWorkload:
    @pytest.fixture(scope="class")
    def report(self):
        _, report = run_workload(
            b"wl-honest", WorkloadSpec(n_clients=3, transactions_per_client=4)
        )
        return report

    def test_all_complete(self, report):
        assert report.success_rate == 1.0
        assert report.status_counts == {"completed": 12}

    def test_two_messages_per_transaction(self, report):
        assert report.total_messages == 2 * 12

    def test_provider_stored_everything(self, report):
        assert report.provider_objects == 12

    def test_all_terminated(self, report):
        assert report.all_terminated

    def test_evidence_accumulates(self, report):
        # at least NRO+NRR per transaction across all stores
        assert report.evidence_items >= 2 * 12

    def test_deterministic(self):
        spec = WorkloadSpec(n_clients=2, transactions_per_client=2)
        _, r1 = run_workload(b"wl-det", spec)
        _, r2 = run_workload(b"wl-det", spec)
        assert r1.total_bytes == r2.total_bytes
        assert r1.elapsed == r2.elapsed


class TestAdversarialWorkload:
    def test_tampering_provider_still_completes_uploads(self):
        _, report = run_workload(
            b"wl-tamper",
            WorkloadSpec(n_clients=2, transactions_per_client=3),
            behavior=ProviderBehavior(tamper_mode=TamperMode.REPLACE),
        )
        # Uploads complete (tampering shows at download, not upload).
        assert report.success_rate == 1.0

    def test_silent_provider_resolves_all(self):
        _, report = run_workload(
            b"wl-silent",
            WorkloadSpec(n_clients=2, transactions_per_client=3),
            behavior=ProviderBehavior(silent_on_upload=True),
        )
        assert report.status_counts.get("resolved", 0) == 6
        assert report.all_terminated


class TestResilienceSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return resilience_sweep(
            b"wl-sweep", drop_probs=(0.0, 0.1, 0.3, 0.5),
            spec=WorkloadSpec(n_clients=2, transactions_per_client=3),
        )

    def test_lossless_is_perfect(self, sweep):
        assert sweep[0][1].success_rate == 1.0

    def test_everything_terminates_under_loss(self, sweep):
        assert all(report.all_terminated for _, report in sweep)

    def test_loss_reduces_success(self, sweep):
        assert sweep[-1][1].success_rate <= sweep[0][1].success_rate

    def test_retransmission_absorbs_moderate_loss(self):
        # At 30% per-message loss, retransmission (capped exponential
        # backoff) completes most transactions without the TTP; the
        # rest resolve through it or fail with a statement.  Which
        # transactions need the TTP depends on the draws, so the claim
        # is checked on a dozen seeds, not pinned to one.
        seeds = [b"wl-sweep"] + [f"wl-sweep-{i}".encode() for i in range(1, 12)]
        spec = WorkloadSpec(n_clients=2, transactions_per_client=3)
        for seed in seeds:
            (_, moderate), = resilience_sweep(seed, drop_probs=(0.3,), spec=spec)
            counts = moderate.status_counts
            assert moderate.all_terminated, seed
            assert set(counts) <= {"completed", "resolved", "failed"}, seed
            assert counts["completed"] >= 4, seed
            assert counts.get("failed", 0) <= 1, seed

    def test_lossy_channel_uses_ttp(self, sweep):
        lossy_statuses = sweep[-1][1].status_counts
        # At 50% loss the retransmit budget is no longer enough for
        # every message; some transactions escalate to the TTP or fail.
        assert lossy_statuses.get("resolved", 0) + lossy_statuses.get("failed", 0) > 0


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
