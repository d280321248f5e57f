"""The Venus-style fork-consistency verifier, check by check."""

import pytest

from repro.crypto.hashes import digest
from repro.replication.verify import (
    ForkConsistencyVerifier,
    sign_attestation,
)

KEY_A = b"a" * 32
KEY_B = b"b" * 32


@pytest.fixture
def verifier():
    v = ForkConsistencyVerifier({"alpha": KEY_A, "beta": KEY_B})
    v.commit("c", "k", 1, digest("sha256", b"v1 bytes").hex(),
             digest("md5", b"v1 bytes").hex(), 8, 0.0, ["alpha", "beta"])
    return v


def attest(replica, key, data, version, vector=()):
    return sign_attestation(key, replica, "c", "k", digest("sha256", data),
                            version, tuple(sorted(vector)))


class TestCleanReads:
    def test_up_to_date_read_is_clean(self, verifier):
        att = attest("alpha", KEY_A, b"v1 bytes", 1)
        assert verifier.check_read(att) is None
        assert verifier.findings == []

    def test_vector_within_acks_is_clean(self, verifier):
        att = attest("alpha", KEY_A, b"v1 bytes", 1,
                     [("alpha", 1), ("beta", 1)])
        assert verifier.check_read(att) is None


class TestForgery:
    def test_wrong_mac_key_is_bad_attestation(self, verifier):
        att = attest("alpha", KEY_B, b"v1 bytes", 1)  # beta's key
        finding = verifier.check_read(att)
        assert finding.category == "replica-bad-attestation"
        assert finding.is_error

    def test_unknown_replica_is_bad_attestation(self, verifier):
        att = attest("gamma", KEY_A, b"v1 bytes", 1)
        assert verifier.check_read(att).category == "replica-bad-attestation"


class TestForks:
    def test_version_ahead_of_quorum_is_fork(self, verifier):
        att = attest("alpha", KEY_A, b"minority write", 2)
        finding = verifier.check_read(att)
        assert finding.category == "replica-fork"
        assert "minority" in finding.detail

    def test_vector_claiming_unacked_version_is_fork(self, verifier):
        att = attest("alpha", KEY_A, b"v1 bytes", 1, [("beta", 9)])
        assert verifier.check_read(att).category == "replica-fork"

    def test_object_the_quorum_never_wrote_is_fork(self, verifier):
        att = sign_attestation(KEY_A, "alpha", "c", "ghost", digest("sha256", b"x"), 1, ())
        assert verifier.check_read(att).category == "replica-fork"


class TestDivergence:
    def test_same_version_wrong_bytes(self, verifier):
        att = attest("alpha", KEY_A, b"evil bytes", 1)
        assert verifier.check_read(att).category == "replica-divergence"

    def test_historical_version_wrong_bytes(self, verifier):
        verifier.commit("c", "k", 2, digest("sha256", b"v2 bytes").hex(),
                        digest("md5", b"v2 bytes").hex(), 8, 1.0, ["alpha"])
        att = attest("beta", KEY_B, b"not what v1 was", 1)
        assert verifier.check_read(att).category == "replica-divergence"

    def test_vanished_after_ack_is_divergence(self, verifier):
        finding = verifier.check_missing("alpha", "c", "k")
        assert finding.category == "replica-divergence"
        assert "vanished" in finding.detail


class TestStaleAndLag:
    def test_rollback_after_ack_is_stale_read(self, verifier):
        verifier.commit("c", "k", 2, digest("sha256", b"v2 bytes").hex(),
                        digest("md5", b"v2 bytes").hex(), 8, 1.0,
                        ["alpha", "beta"])
        att = attest("alpha", KEY_A, b"v1 bytes", 1)
        finding = verifier.check_read(att)
        assert finding.category == "replica-stale-read"
        assert finding.is_error

    def test_behind_without_ack_is_lag_info(self, verifier):
        verifier.commit("c", "k", 2, digest("sha256", b"v2 bytes").hex(),
                        digest("md5", b"v2 bytes").hex(), 8, 1.0, ["beta"])
        att = attest("alpha", KEY_A, b"v1 bytes", 1)
        finding = verifier.check_read(att)
        assert finding.category == "replica-lag"
        assert not finding.is_error

    def test_missing_without_ack_is_lag_info(self, verifier):
        finding = verifier.check_missing("gamma", "c", "k")
        assert finding.category == "replica-lag"
        assert not finding.is_error


class TestTrustedLog:
    def test_latest_and_live_keys(self, verifier):
        assert verifier.latest("c", "k").version == 1
        assert verifier.live_keys() == [("c", "k")]
        assert verifier.latest("c", "other") is None

    def test_rewrite_history_silences_replica_checks(self, verifier):
        # The provider-side cover-up: books fixed, so the tampered read
        # verifies — this blindness is exactly why TPNR evidence exists.
        tampered = b"covered-up bytes"
        verifier.rewrite_history("c", "k", digest("sha256", tampered).hex(),
                                 digest("md5", tampered).hex(), len(tampered))
        att = attest("alpha", KEY_A, tampered, 1)
        assert verifier.check_read(att) is None

    def test_findings_filtering(self, verifier):
        verifier.check_read(attest("alpha", KEY_A, b"evil", 1))
        verifier.check_missing("gamma", "c", "k")
        assert len(verifier.findings) == 2
        assert len(verifier.error_findings()) == 1
        assert [f.replica for f in verifier.findings_for(key="k")] == \
            ["alpha", "gamma"]
        assert verifier.findings_for(replica="gamma")[0].category == \
            "replica-lag"
