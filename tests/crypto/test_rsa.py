"""RSA keygen, signatures, and encryption."""

import hashlib
import pickle
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.drbg import HmacDrbg
from repro.crypto.numbers import modinv
from repro.crypto.primes import generate_prime
from repro.errors import CryptoError, DecryptionError, InvalidKeyError


_HYP_KEY = rsa.generate_keypair(512, HmacDrbg(b"rsa-hyp-key"))


@pytest.fixture(scope="module")
def key():
    return rsa.generate_keypair(512, HmacDrbg(b"rsa-tests"))


@pytest.fixture(scope="module")
def other_key():
    return rsa.generate_keypair(512, HmacDrbg(b"rsa-tests-other"))


def two_prime_key(bits, rng, e=65537):
    """A two-prime key built by hand from two *bits*/2-bit primes, as
    keygen built them before keys had three."""
    while True:
        p, q = generate_prime(bits // 2, rng), generate_prime(bits // 2, rng)
        phi = (p - 1) * (q - 1)
        if p != q and gcd(e, phi) == 1:
            return rsa.RsaPrivateKey(n=p * q, e=e, d=modinv(e, phi), primes=(p, q))


class _NoDraws:
    """A DRBG stand-in that fails the test on any draw."""

    def randbits(self, bits):
        raise AssertionError("keygen drew before checking e")


class TestKeygen:
    def test_modulus_bits_exact(self, key):
        assert key.n.bit_length() == 512

    def test_factors(self, key):
        assert prod(key.primes) == key.n
        assert len(set(key.primes)) == len(key.primes) == 3

    def test_private_exponent(self, key):
        phi = prod(r - 1 for r in key.primes)
        assert (key.d * key.e) % phi == 1

    @pytest.mark.parametrize("count", [2, 3], ids=["2-primes", "3-primes"])
    @pytest.mark.parametrize("bits", [256, 512, 768, 1024])
    @given(seed=st.binary(min_size=1, max_size=8), data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_key_maths(self, count, bits, seed, data):
        """The CRT private operation is ``pow(c, d, n)`` at any prime
        count, keys sign and decrypt what their public halves verify and
        encrypt, and generated keys have exactly *bits* bits."""
        rng = HmacDrbg(b"key-maths", seed)
        key = two_prime_key(bits, rng) if count == 2 else rsa.generate_keypair(bits, rng)
        assert len(key.primes) == len(set(key.primes)) == count
        assert prod(key.primes) == key.n and key.n.bit_length() == bits
        assert all(key.e * key.d % (r - 1) == 1 for r in key.primes)
        for c in data.draw(st.lists(st.integers(0, key.n - 1), min_size=1, max_size=4)):
            assert key._private_op(c) == pow(c, key.d, key.n)
        message = data.draw(st.binary(max_size=key.size_bytes - 11))
        public = key.public_key()
        assert rsa.decrypt(key, rsa.encrypt(public, message, rng)) == message
        if bits >= 512:  # a 256-bit modulus holds no signature block
            assert rsa.verify(public, message, rsa.sign(key, message))

    def test_deterministic(self):
        k1 = rsa.generate_keypair(256, HmacDrbg(b"det"))
        k2 = rsa.generate_keypair(256, HmacDrbg(b"det"))
        assert k1 == k2

    def test_keys_are_pinned(self):
        """Keys from fixed seeds, hashed when keys came to have three
        primes (RFC 8017 §3.2) and ``is_prime`` 19 witnesses, which
        moved every key once; before that, when its 12 witnesses came to
        wait for base 2.  Any change to what keygen draws or accepts
        fails here."""
        keys = [
            rsa.generate_keypair(bits, HmacDrbg(f"keygen-pin-{bits}-{i}"))
            for bits, count in ((256, 2), (512, 2), (1024, 1))
            for i in range(count)
        ]
        assert hashlib.sha256("".join(map(repr, keys)).encode()).hexdigest() == (
            "94d4e3303e11caecc347d2cddf23959ca2be42dd2f2c0807df70eb408a5c0ca2"
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
        """The cached CRT constants change no signature, equality and
        repr see only (n, e, d, primes), and a pickled key signs alike."""
        used = rsa.generate_keypair(512, HmacDrbg(b"crt"))
        fresh = rsa.generate_keypair(512, HmacDrbg(b"crt"))
        signature = rsa.sign(used, b"crt")
        assert rsa.sign(used, b"crt") == signature
        assert used == fresh and repr(used) == repr(fresh)
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
