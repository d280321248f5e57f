"""RSA from scratch: key generation, signatures, and encryption.

The paper's evidence objects are ``Encrypt{Sign(HashOfData),
Sign(Plaintext)}`` — signatures with the sender's private key,
encryption with the recipient's public key.  This module provides both
operations:

* **Signatures** follow the PKCS#1 v1.5 shape: a DigestInfo-like prefix
  identifying the hash, deterministic ``0x00 01 FF.. 00`` padding, then
  the private-key operation (with CRT speedup).
* **Encryption** follows the PKCS#1 v1.5 type-2 shape: random non-zero
  padding drawn from the caller's DRBG.  Bulk data never goes through
  RSA directly — :mod:`repro.crypto.kem` wraps a symmetric key instead.

Key sizes are scaled down (512-1024 bits) for laptop-scale benchmarks;
this changes nothing about protocol semantics (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import CryptoError, DecryptionError, InvalidKeyError
from . import cache as _cache
from . import instrument as _instrument
from .drbg import HmacDrbg
from .hashes import DIGEST_SIZES, digest
from .numbers import bit_length_bytes, bytes_to_int, crt_pair, int_to_bytes, modinv
from .primes import generate_prime

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_keypair",
    "sign",
    "verify",
    "encrypt",
    "decrypt",
    "MIN_MODULUS_BITS",
]

MIN_MODULUS_BITS = 256  # floor for test keys; realistic deployments use >= 2048

# Stand-in for the ASN.1 DigestInfo prefixes of real PKCS#1 v1.5: a
# fixed library-specific label that binds the hash algorithm into the
# padded block, preventing cross-algorithm signature confusion.
_DIGEST_LABELS = {
    "md5": b"repro:md5:",
    "sha256": b"repro:sha256:",
}


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        return bit_length_bytes(self.n)

    def fingerprint(self) -> str:
        """Stable hex identifier for key registries and certificates."""
        blob = int_to_bytes(self.n) + b"/" + int_to_bytes(self.e)
        return digest("sha256", blob).hex()[:32]


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT components."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def size_bytes(self) -> int:
        return bit_length_bytes(self.n)

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @cached_property
    def _crt(self) -> tuple[int, int, int]:
        """``(d mod p-1, d mod q-1, q^-1 mod p)``, derived once per key.
        Cached outside the dataclass fields, so equality, repr and the
        pickled state never see it."""
        return self.d % (self.p - 1), self.d % (self.q - 1), modinv(self.q, self.p)

    def _private_op(self, c: int) -> int:
        """``c**d mod n`` via CRT (≈4x faster than the naive pow)."""
        d_p, d_q, q_inv = self._crt
        m_p = pow(c % self.p, d_p, self.p)
        m_q = pow(c % self.q, d_q, self.q)
        return crt_pair(m_p, self.p, m_q, self.q, q_inv)


def generate_keypair(bits: int, rng: HmacDrbg, e: int = 65537) -> RsaPrivateKey:
    """Generate an RSA keypair with an exactly *bits*-bit modulus.

    *e* must be an odd integer >= 3: an even one is never coprime with
    ``phi``, and ``e = 1`` makes every signature the padded message.
    """
    if not isinstance(e, int) or e < 3 or e % 2 == 0:
        raise InvalidKeyError(f"public exponent must be an odd integer >= 3, got {e!r}")
    if bits < MIN_MODULUS_BITS:
        raise InvalidKeyError(f"modulus must be >= {MIN_MODULUS_BITS} bits, got {bits}")
    if bits % 2 != 0:
        raise InvalidKeyError("modulus bit size must be even")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(e, phi)
        except CryptoError:
            continue  # e not coprime with phi; rare, retry
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


# --------------------------------------------------------------------------
# Signatures
# --------------------------------------------------------------------------

def _encode_digest_block(data_digest: bytes, hash_name: str, size: int) -> bytes:
    """PKCS#1 v1.5-style EMSA encoding: ``00 01 FF.. 00 label digest``."""
    label = _DIGEST_LABELS[hash_name]
    payload = label + data_digest
    pad_len = size - 3 - len(payload)
    if pad_len < 8:
        raise InvalidKeyError("RSA modulus too small for signature encoding")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + payload


def sign(key: RsaPrivateKey, message: bytes, hash_name: str = "sha256") -> bytes:
    """Sign *message* (hash-then-sign). Returns a modulus-sized blob.

    Signing is fully deterministic here (EMSA padding, no salt), so the
    signature is a pure function of ``(key, hash algorithm, digest)``
    and can be served from :mod:`repro.crypto.cache` when installed —
    a hit skips the CRT private-key operation and returns the identical
    blob.  The observer still counts every call either way.
    """
    if hash_name not in DIGEST_SIZES:
        raise CryptoError(f"unknown hash algorithm: {hash_name!r}")
    data_digest = digest(hash_name, message)
    caches = _cache.caches
    cache_key = (key.n, hash_name, data_digest) if caches is not None else None
    signature = caches.sign.get(cache_key) if caches is not None else None
    if signature is None:
        block = _encode_digest_block(data_digest, hash_name, key.size_bytes)
        m = bytes_to_int(block)
        s = key._private_op(m)
        signature = int_to_bytes(s, key.size_bytes)
        if caches is not None:
            caches.sign.put(cache_key, signature)
    observer = _instrument.observer
    if observer is not None:
        observer.crypto_call("rsa.sign")
    return signature


def verify(key: RsaPublicKey, message: bytes, signature: bytes, hash_name: str = "sha256") -> bool:
    """True iff *signature* is a valid signature of *message* under *key*."""
    observer = _instrument.observer
    if observer is not None:
        observer.crypto_call("rsa.verify")
    if hash_name not in DIGEST_SIZES:
        raise CryptoError(f"unknown hash algorithm: {hash_name!r}")
    caches = _cache.caches
    if caches is not None:
        # Verification is a pure predicate of key, algorithm, digest,
        # and signature bytes, so the verdict itself is cacheable —
        # the engine's repeated NRO/NRR checks hit this.
        cache_key = (key.n, key.e, hash_name, digest(hash_name, message), signature)
        verdict = caches.verify.get(cache_key)
        if verdict is None:
            verdict = _verify_uncached(key, message, signature, hash_name)
            caches.verify.put(cache_key, verdict)
        return verdict
    return _verify_uncached(key, message, signature, hash_name)


def _verify_uncached(key: RsaPublicKey, message: bytes, signature: bytes, hash_name: str) -> bool:
    if len(signature) != key.size_bytes:
        return False
    s = bytes_to_int(signature)
    if s >= key.n:
        return False
    block = int_to_bytes(pow(s, key.e, key.n), key.size_bytes)
    try:
        expected = _encode_digest_block(digest(hash_name, message), hash_name, key.size_bytes)
    except InvalidKeyError:
        return False
    return block == expected


# --------------------------------------------------------------------------
# Encryption (PKCS#1 v1.5 type 2 shape)
# --------------------------------------------------------------------------

def encrypt(key: RsaPublicKey, plaintext: bytes, rng: HmacDrbg) -> bytes:
    """Encrypt a short *plaintext* (at most ``size - 11`` bytes)."""
    size = key.size_bytes
    max_len = size - 11
    if len(plaintext) > max_len:
        raise CryptoError(
            f"RSA plaintext too long: {len(plaintext)} > {max_len} "
            "(use repro.crypto.kem for bulk data)"
        )
    pad_len = size - 3 - len(plaintext)
    padding = bytearray()
    while len(padding) < pad_len:
        chunk = rng.generate(pad_len - len(padding))
        padding.extend(b for b in chunk if b != 0)
    block = b"\x00\x02" + bytes(padding[:pad_len]) + b"\x00" + plaintext
    m = bytes_to_int(block)
    return int_to_bytes(pow(m, key.e, key.n), size)


def decrypt(key: RsaPrivateKey, ciphertext: bytes) -> bytes:
    """Decrypt a block produced by :func:`encrypt`."""
    size = key.size_bytes
    if len(ciphertext) != size:
        raise DecryptionError(f"ciphertext must be {size} bytes, got {len(ciphertext)}")
    c = bytes_to_int(ciphertext)
    if c >= key.n:
        raise DecryptionError("ciphertext out of range")
    block = int_to_bytes(key._private_op(c), size)
    if block[:2] != b"\x00\x02":
        raise DecryptionError("bad RSA padding header")
    try:
        sep = block.index(b"\x00", 2)
    except ValueError as exc:
        raise DecryptionError("RSA padding separator missing") from exc
    if sep < 10:  # require the minimum 8 bytes of padding
        raise DecryptionError("RSA padding too short")
    return block[sep + 1 :]
