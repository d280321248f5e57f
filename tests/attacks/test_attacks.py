"""The §5 robustness gauntlet."""

import pytest

from repro.attacks import (
    InterleavingAttack,
    MitmAttack,
    NaiveChallengeResponse,
    NaiveReceiptService,
    ReflectionAttack,
    ReplayAttack,
    TimelinessAttack,
    run_gauntlet,
    tpnr_defense_holds,
)
from repro.crypto.drbg import HmacDrbg

SEED = b"attack-tests"


class TestMitm:
    def test_defeated_with_cert_validation(self):
        result = MitmAttack().run(SEED, verify_peer=True)
        assert not result.succeeded
        assert "rejected" in result.detail

    def test_succeeds_without_cert_validation(self):
        result = MitmAttack().run(SEED, verify_peer=False)
        assert result.succeeded
        assert result.messages_intercepted >= 1

    def test_paper_section_label(self):
        assert MitmAttack().paper_section == "5.1"


class TestReflection:
    def test_defeated_against_tpnr(self):
        result = ReflectionAttack().run(SEED)
        assert not result.succeeded
        assert "addressed" in result.detail

    def test_succeeds_against_naive_challenge_response(self):
        result = ReflectionAttack().run(SEED, naive_target=True)
        assert result.succeeded

    def test_naive_target_direct(self):
        victim = NaiveChallengeResponse(HmacDrbg(SEED).generate(32))
        challenge = b"c" * 16
        assert victim.verify(challenge, victim.respond(challenge))


class TestInterleaving:
    def test_defeated_against_tpnr(self):
        result = InterleavingAttack().run(SEED)
        assert not result.succeeded

    def test_succeeds_against_naive_receipts(self):
        result = InterleavingAttack().run(SEED, naive_target=True)
        assert result.succeeded

    def test_naive_receipts_identical_across_sessions(self):
        service = NaiveReceiptService(HmacDrbg(SEED))
        _, r1 = service.upload(b"one")
        _, r2 = service.upload(b"two")
        assert r1 == r2  # the flaw in one assertion


class TestReplay:
    def test_defeated_against_full_protocol(self):
        result = ReplayAttack().run(SEED)
        assert not result.succeeded
        assert "1 receipt" in result.detail

    def test_succeeds_without_seq_and_nonce(self):
        result = ReplayAttack().run(SEED, weakened=True)
        assert result.succeeded
        assert "2 receipts" in result.detail


class TestTimeliness:
    def test_defeated_with_time_limit(self):
        result = TimelinessAttack().run(SEED)
        assert not result.succeeded
        assert "terminated finitely" in result.detail

    def test_succeeds_without_time_limit(self):
        result = TimelinessAttack().run(SEED, weakened=True)
        assert result.succeeded


class TestGauntlet:
    @pytest.fixture(scope="class")
    def results(self):
        return run_gauntlet(SEED)

    def test_ten_combinations(self, results):
        assert len(results) == 10

    def test_full_defense_holds(self, results):
        """The paper's §5 claim: all five attacks fail against TPNR."""
        assert tpnr_defense_holds(results)

    def test_every_weakened_target_falls(self, results):
        weakened = [r for r in results
                    if r.target not in ("tpnr/full", "securechannel/authenticated")]
        assert len(weakened) == 5
        assert all(r.succeeded for r in weakened)

    def test_matrix_shape(self, results):
        matrix = {(r.attack, r.target): r.succeeded for r in results}
        assert matrix[("replay", "tpnr/full")] is False
        assert matrix[("replay", "tpnr/no-seq-no-nonce")] is True
        assert matrix[("man-in-the-middle", "securechannel/no-cert-check")] is True

    def test_deterministic(self, results):
        again = run_gauntlet(SEED)
        assert [(r.attack, r.target, r.succeeded) for r in again] == [
            (r.attack, r.target, r.succeeded) for r in results]
