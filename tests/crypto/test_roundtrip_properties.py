"""Property-style round-trip tests over seeded randomness.

Deterministic property testing: every "random" input comes from a
seeded :class:`HmacDrbg`, so a failure is reproducible from the seed
alone.  Covers the two primitives the bridging schemes and TPNR lean
on hardest — Shamir secret sharing (§3.2's SKS) and RSA signatures
(the NRO/NRR evidence) — at randomized sizes and thresholds.
"""

import pytest

from repro.crypto import rsa
from repro.crypto.drbg import HmacDrbg
from repro.crypto.primes import MERSENNE_521
from repro.crypto.shamir import (
    Share,
    recover_digest,
    recover_secret,
    split_digest,
    split_secret,
)
from repro.errors import SecretSharingError

TRIALS = 25


def shuffle(items: list, rng: HmacDrbg) -> None:
    """In-place Fisher-Yates shuffle driven by *rng*."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]


class TestShamirRoundTrip:
    def test_split_recover_identity_at_random_thresholds(self):
        rng = HmacDrbg(b"prop/shamir")
        for trial in range(TRIALS):
            n = rng.randint(2, 12)
            k = rng.randint(1, n)
            secret = rng.randint(0, MERSENNE_521 - 1)
            shares = split_secret(secret, n, k, rng)
            assert len(shares) == n
            # Any k-subset reconstructs; use a shuffled prefix so the
            # subset (and its order) varies per trial.
            shuffle(shares, rng)
            assert recover_secret(shares[:k], k) == secret, f"trial {trial}"

    def test_fewer_than_threshold_shares_do_not_reconstruct(self):
        rng = HmacDrbg(b"prop/shamir-under")
        for trial in range(TRIALS):
            n = rng.randint(3, 10)
            k = rng.randint(2, n)
            secret = rng.randint(0, MERSENNE_521 - 1)
            shares = split_secret(secret, n, k, rng)
            shuffle(shares, rng)
            subset = shares[: k - 1]
            # Interpolating an underdetermined system at the wrong
            # degree yields garbage, not the secret.
            assert recover_secret(subset, k - 1) != secret, f"trial {trial}"

    def test_digest_round_trip_for_md5_and_sha256_sizes(self):
        rng = HmacDrbg(b"prop/shamir-digest")
        for size in (16, 32):  # MD5 and SHA-256, the paper's two digests
            for _ in range(10):
                digest = rng.generate(size)
                n = rng.randint(2, 8)
                k = rng.randint(1, n)
                shares = split_digest(digest, n, k, rng)
                shuffle(shares, rng)
                assert recover_digest(shares[:k], size, k) == digest

    def test_corrupted_share_changes_reconstruction(self):
        rng = HmacDrbg(b"prop/shamir-tamper")
        for trial in range(TRIALS):
            secret = rng.randint(0, MERSENNE_521 - 1)
            k = rng.randint(2, 5)
            shares = split_secret(secret, k, k, rng)
            victim = rng.randint(0, k - 1)
            delta = rng.randint(1, MERSENNE_521 - 1)
            forged = Share(shares[victim].x, (shares[victim].y + delta) % MERSENNE_521)
            tampered = list(shares)
            tampered[victim] = forged
            assert recover_secret(tampered, k) != secret, f"trial {trial}"

    def test_out_of_field_secret_rejected(self):
        rng = HmacDrbg(b"prop/shamir-range")
        with pytest.raises(SecretSharingError):
            split_secret(MERSENNE_521, 3, 2, rng)
        with pytest.raises(SecretSharingError):
            split_secret(-1, 3, 2, rng)


class TestRsaRoundTrip:
    @pytest.fixture(scope="class")
    def keypair(self):
        return rsa.generate_keypair(512, HmacDrbg(b"prop/rsa-key"))

    def test_sign_verify_identity_over_random_messages(self, keypair):
        rng = HmacDrbg(b"prop/rsa-msgs")
        public = keypair.public_key()
        for trial in range(TRIALS):
            message = rng.generate(rng.randint(0, 300))
            signature = rsa.sign(keypair, message)
            assert rsa.verify(public, message, signature), f"trial {trial}"

    def test_single_bit_flip_in_message_rejected(self, keypair):
        rng = HmacDrbg(b"prop/rsa-tamper-msg")
        public = keypair.public_key()
        for trial in range(TRIALS):
            message = rng.generate(rng.randint(1, 200))
            signature = rsa.sign(keypair, message)
            i = rng.randint(0, len(message) - 1)
            bit = 1 << rng.randint(0, 7)
            forged = message[:i] + bytes([message[i] ^ bit]) + message[i + 1:]
            assert not rsa.verify(public, forged, signature), f"trial {trial}"

    def test_single_bit_flip_in_signature_rejected(self, keypair):
        rng = HmacDrbg(b"prop/rsa-tamper-sig")
        public = keypair.public_key()
        for trial in range(TRIALS):
            message = rng.generate(rng.randint(1, 200))
            signature = rsa.sign(keypair, message)
            i = rng.randint(0, len(signature) - 1)
            bit = 1 << rng.randint(0, 7)
            forged = signature[:i] + bytes([signature[i] ^ bit]) + signature[i + 1:]
            assert not rsa.verify(public, message, forged), f"trial {trial}"

    def test_signature_bound_to_signer(self, keypair):
        other = rsa.generate_keypair(512, HmacDrbg(b"prop/rsa-key-2"))
        message = b"evidence binds to exactly one signer"
        signature = rsa.sign(keypair, message)
        assert rsa.verify(keypair.public_key(), message, signature)
        assert not rsa.verify(other.public_key(), message, signature)

    def test_encrypt_decrypt_round_trip(self, keypair):
        rng = HmacDrbg(b"prop/rsa-enc")
        public = keypair.public_key()
        for trial in range(TRIALS):
            # 512-bit modulus, PKCS#1-style padding: keep well under
            # the modulus size.
            plaintext = rng.generate(rng.randint(0, 20))
            ciphertext = rsa.encrypt(public, plaintext, rng)
            assert rsa.decrypt(keypair, ciphertext) == plaintext, f"trial {trial}"
