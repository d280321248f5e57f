"""RSA keygen, signatures, and encryption."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.drbg import HmacDrbg
from repro.errors import CryptoError, DecryptionError, InvalidKeyError


_HYP_KEY = rsa.generate_keypair(512, HmacDrbg(b"rsa-hyp-key"))


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(512, HmacDrbg(b"rsa-tests"))


@pytest.fixture(scope="module")
def other_key():
    return rsa.generate_keypair(512, HmacDrbg(b"rsa-tests-other"))


class _NoDraws:
    """A DRBG stand-in that fails the test on any draw."""

    def randbits(self, bits):
        raise AssertionError("keygen drew before checking e")


class TestKeygen:
    def test_modulus_bits_exact(self, key):
        assert key.bits == 512

    def test_factors(self, key):
        assert key.p * key.q == key.n
        assert key.p != key.q

    def test_private_exponent(self, key):
        phi = (key.p - 1) * (key.q - 1)
        assert (key.d * key.e) % phi == 1

    def test_deterministic(self):
        k1 = rsa.generate_keypair(256, HmacDrbg(b"det"))
        k2 = rsa.generate_keypair(256, HmacDrbg(b"det"))
        assert k1 == k2

    def test_keys_are_pinned(self):
        """Keys from fixed seeds, hashed when ``is_prime`` came to draw
        its 12 witnesses only after base 2: any change to what keygen
        draws or accepts fails here."""
        keys = [
            rsa.generate_keypair(bits, HmacDrbg(f"keygen-pin-{bits}-{i}"))
            for bits, count in ((256, 2), (512, 2), (1024, 1))
            for i in range(count)
        ]
        assert hashlib.sha256("".join(map(repr, keys)).encode()).hexdigest() == (
            "e0c09775e04152b9934053d28c005e4ae4b3be6fd298fcd6466c166c8d62b8f6"
        )

    @pytest.mark.parametrize("e", [2, 1, -3], ids=["even", "one", "negative"])
    def test_bad_exponent_rejected(self, e):
        """An even e is never coprime with phi (keygen retried forever),
        and e = 1 makes a signature the padded message.  The DRBG fails
        on any draw, so a regression errors here instead of hanging."""
        with pytest.raises(InvalidKeyError):
            rsa.generate_keypair(512, _NoDraws(), e=e)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidKeyError):
            rsa.generate_keypair(128, HmacDrbg(b"x"))

    def test_odd_bits_rejected(self):
        with pytest.raises(InvalidKeyError):
            rsa.generate_keypair(513, HmacDrbg(b"x"))

    def test_public_key_projection(self, key):
        public = key.public_key()
        assert (public.n, public.e) == (key.n, key.e)

    def test_fingerprint_stable_and_distinct(self, key, other_key):
        assert key.public_key().fingerprint() == key.public_key().fingerprint()
        assert key.public_key().fingerprint() != other_key.public_key().fingerprint()

    def test_crt_constants_stay_out_of_the_key(self):
        """The cached CRT constants change no signature, and equality,
        repr and the pickled state see only (n, e, d, p, q)."""
        used = rsa.generate_keypair(512, HmacDrbg(b"crt"))
        fresh = rsa.generate_keypair(512, HmacDrbg(b"crt"))
        signature = rsa.sign(used, b"crt")
        assert rsa.sign(used, b"crt") == signature
        assert used == fresh and repr(used) == repr(fresh)
        assert used.__getstate__() == fresh.__getstate__()
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used and rsa.sign(restored, b"crt") == signature

    @pytest.mark.slow
    def test_large_key(self):
        k = rsa.generate_keypair(2048, HmacDrbg(b"big"))
        sig = rsa.sign(k, b"large-key message")
        assert rsa.verify(k.public_key(), b"large-key message", sig)


class TestSignatures:
    def test_sign_verify(self, key):
        sig = rsa.sign(key, b"message")
        assert rsa.verify(key.public_key(), b"message", sig)

    def test_wrong_message(self, key):
        sig = rsa.sign(key, b"message")
        assert not rsa.verify(key.public_key(), b"other", sig)

    def test_wrong_key(self, key, other_key):
        sig = rsa.sign(key, b"message")
        assert not rsa.verify(other_key.public_key(), b"message", sig)

    def test_bitflipped_signature(self, key):
        sig = bytearray(rsa.sign(key, b"message"))
        sig[10] ^= 0x01
        assert not rsa.verify(key.public_key(), b"message", bytes(sig))

    def test_signature_length(self, key):
        assert len(rsa.sign(key, b"m")) == key.size_bytes

    def test_wrong_length_signature(self, key):
        assert not rsa.verify(key.public_key(), b"m", b"\x00" * 10)

    def test_hash_algorithm_bound(self, key):
        """A signature under md5 must not verify as sha256."""
        sig = rsa.sign(key, b"message", hash_name="md5")
        assert rsa.verify(key.public_key(), b"message", sig, hash_name="md5")
        assert not rsa.verify(key.public_key(), b"message", sig, hash_name="sha256")

    def test_unknown_hash(self, key):
        with pytest.raises(CryptoError):
            rsa.sign(key, b"m", hash_name="sha512")

    def test_deterministic_signature(self, key):
        assert rsa.sign(key, b"same") == rsa.sign(key, b"same")

    @given(st.binary(max_size=512))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_random(self, message):
        sig = rsa.sign(_HYP_KEY, message)
        assert rsa.verify(_HYP_KEY.public_key(), message, sig)

    def test_modulus_too_small_for_sha256(self):
        """A 256-bit modulus cannot hold the SHA-256 signature block."""
        tiny = rsa.generate_keypair(256, HmacDrbg(b"tiny"))
        with pytest.raises(InvalidKeyError):
            rsa.sign(tiny, b"m", hash_name="sha256")
        # ...but a 320-bit modulus fits the MD5 (16-byte digest) block.
        small = rsa.generate_keypair(320, HmacDrbg(b"small"))
        sig = rsa.sign(small, b"m", hash_name="md5")
        assert rsa.verify(small.public_key(), b"m", sig, hash_name="md5")


class TestEncryption:
    def test_roundtrip(self, key):
        rng = HmacDrbg(b"enc")
        ciphertext = rsa.encrypt(key.public_key(), b"short secret", rng)
        assert rsa.decrypt(key, ciphertext) == b"short secret"

    def test_randomized(self, key):
        rng = HmacDrbg(b"enc2")
        c1 = rsa.encrypt(key.public_key(), b"same", rng)
        c2 = rsa.encrypt(key.public_key(), b"same", rng)
        assert c1 != c2
        assert rsa.decrypt(key, c1) == rsa.decrypt(key, c2) == b"same"

    def test_max_length_enforced(self, key):
        rng = HmacDrbg(b"enc3")
        limit = key.size_bytes - 11
        rsa.encrypt(key.public_key(), b"x" * limit, rng)  # just fits
        with pytest.raises(CryptoError):
            rsa.encrypt(key.public_key(), b"x" * (limit + 1), rng)

    def test_empty_plaintext(self, key):
        rng = HmacDrbg(b"enc4")
        assert rsa.decrypt(key, rsa.encrypt(key.public_key(), b"", rng)) == b""

    def test_wrong_key_fails(self, key, other_key):
        rng = HmacDrbg(b"enc5")
        ciphertext = rsa.encrypt(key.public_key(), b"secret", rng)
        with pytest.raises(DecryptionError):
            other_key_result = rsa.decrypt(other_key, ciphertext)
            # If padding accidentally parses, the plaintext still differs.
            assert other_key_result != b"secret"

    def test_wrong_length_ciphertext(self, key):
        with pytest.raises(DecryptionError):
            rsa.decrypt(key, b"\x01" * 10)

    def test_ciphertext_out_of_range(self, key):
        with pytest.raises(DecryptionError):
            rsa.decrypt(key, b"\xff" * key.size_bytes)
