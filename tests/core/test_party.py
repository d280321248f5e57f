"""Party-level validation: the §4.1/§5 inbound checks in isolation."""

import pytest
from dataclasses import replace

from repro.core import make_deployment
from repro.core.messages import Flag
from repro.core.policy import DEFAULT_POLICY, TpnrPolicy
from repro.errors import EvidenceError, ProtocolError, ReplayError

PAYLOAD = b"validation payload"


@pytest.fixture
def dep():
    return make_deployment(seed=b"party-tests")


def upload_message(dep, txn="TXN-P1"):
    from repro.crypto.hashes import digest

    header = dep.client.make_header(Flag.UPLOAD, "bob", txn, digest("sha256", PAYLOAD))
    return dep.client.make_message(header, data=PAYLOAD)


class TestValidateAndOpen:
    def test_valid_message_opens(self, dep):
        message = upload_message(dep)
        opened = dep.provider.validate_and_open(message)
        assert opened.signer == "alice"

    def test_misaddressed_rejected(self, dep):
        message = upload_message(dep)
        with pytest.raises(ProtocolError):
            dep.ttp.validate_and_open(message)  # addressed to bob

    def test_expired_rejected(self, dep):
        message = upload_message(dep)
        dep.sim.clock.advance_to(dep.sim.now + DEFAULT_POLICY.message_time_limit + 1)
        with pytest.raises(ReplayError):
            dep.provider.validate_and_open(message)

    def test_duplicate_rejected(self, dep):
        message = upload_message(dep)
        dep.provider.validate_and_open(message)
        with pytest.raises(ReplayError):
            dep.provider.validate_and_open(message)

    def test_tampered_payload_hash_mismatch_rejected(self, dep):
        """Swapping the data hash breaks the signed header."""
        message = upload_message(dep)
        forged = replace(message, header=replace(message.header, data_hash=b"x" * 32))
        with pytest.raises(EvidenceError):
            dep.provider.validate_and_open(forged)

    def test_reject_records_reason(self, dep):
        dep.provider.reject("some.kind", "some reason")
        assert dep.provider.rejected_messages == [("some.kind", "some reason")]

    def test_record_lookup_unknown(self, dep):
        with pytest.raises(ProtocolError):
            dep.client.download("TXN-GHOST")


class TestPolicyAblations:
    def test_no_time_limit_accepts_stale(self):
        dep = make_deployment(seed=b"party-ablate-1",
                              policy=DEFAULT_POLICY.weakened(enforce_time_limit=False))
        message = upload_message(dep)
        dep.sim.clock.advance_to(dep.sim.now + 10_000)
        opened = dep.provider.validate_and_open(message)
        assert opened.signer == "alice"

    def test_no_replay_guards_accept_duplicates(self):
        dep = make_deployment(
            seed=b"party-ablate-2",
            policy=DEFAULT_POLICY.weakened(enforce_sequence=False, enforce_nonce=False),
        )
        message = upload_message(dep)
        dep.provider.validate_and_open(message)
        dep.provider.validate_and_open(message)  # no raise

    def test_no_evidence_verification_returns_placeholder(self):
        dep = make_deployment(seed=b"party-ablate-3",
                              policy=DEFAULT_POLICY.weakened(verify_evidence=False))
        message = upload_message(dep)
        garbage = replace(message, evidence=b"ENC--garbage")
        opened = dep.provider.validate_and_open(garbage)
        assert opened.signature_over_data_hash == b""

    def test_plain_evidence_mode(self):
        dep = make_deployment(seed=b"party-ablate-4",
                              policy=DEFAULT_POLICY.weakened(encrypt_evidence=False))
        message = upload_message(dep)
        assert message.evidence.startswith(b"PLAIN")
        opened = dep.provider.validate_and_open(message)
        assert opened.signer == "alice"


class TestPolicyValidation:
    def test_bad_timeouts(self):
        with pytest.raises(ProtocolError):
            TpnrPolicy(response_timeout=0)
        with pytest.raises(ProtocolError):
            TpnrPolicy(message_time_limit=-1)

    def test_bad_payload_cap(self):
        with pytest.raises(ProtocolError):
            TpnrPolicy(ttp_max_payload=10)

    def test_weakened_copies(self):
        weak = DEFAULT_POLICY.weakened(enforce_nonce=False)
        assert DEFAULT_POLICY.enforce_nonce
        assert not weak.enforce_nonce
        assert weak.response_timeout == DEFAULT_POLICY.response_timeout


class TestProviderBehavior:
    def test_header_sequence_numbers_increase(self, dep):
        h1 = dep.client.make_header(Flag.UPLOAD, "bob", "T1", b"h" * 32)
        h2 = dep.client.make_header(Flag.UPLOAD, "bob", "T2", b"h" * 32)
        assert h2.sequence_number == h1.sequence_number + 1

    def test_nonces_unique(self, dep):
        headers = [dep.client.make_header(Flag.UPLOAD, "bob", f"T{i}", b"h" * 32)
                   for i in range(20)]
        assert len({h.nonce for h in headers}) == 20

    def test_upload_with_corrupt_payload_refused(self, dep):
        """Bob verifies the payload hash before anything else."""
        message = upload_message(dep)
        corrupted = replace(message, data=b"corrupted in flight!")
        dep.provider.on_message(
            type("E", (), {"payload": corrupted, "kind": "tpnr.upload"})()
        )
        assert any("hash mismatch" in reason for _, reason in dep.provider.rejected_messages)
