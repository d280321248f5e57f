"""RSA from scratch: key generation, signatures, and encryption.

The paper's evidence objects are ``Encrypt{Sign(HashOfData),
Sign(Plaintext)}`` — signatures with the sender's private key,
encryption with the recipient's public key.  This module provides both
operations:

* **Signatures** follow the PKCS#1 v1.5 shape: a DigestInfo-like prefix
  identifying the hash, deterministic ``0x00 01 FF.. 00`` padding, then
  the private-key operation (with CRT speedup over the key's primes).
* **Encryption** follows the PKCS#1 v1.5 type-2 shape: random non-zero
  padding drawn from the caller's DRBG.  Bulk data never goes through
  RSA directly — :mod:`repro.crypto.kem` wraps a symmetric key instead.

Key sizes are scaled down (512-1024 bits) for laptop-scale benchmarks;
this changes nothing about protocol semantics (see DESIGN.md §2).
Every key is multi-prime in the sense of RFC 8017 §3.2: its modulus is
the product of :data:`PRIME_COUNT` primes, so each private-key
operation is that many exponentiations modulo primes a third of the
modulus's size.  Public keys, signatures and ciphertexts have the same
sizes as with two primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from ..errors import CryptoError, DecryptionError, InvalidKeyError
from . import cache as _cache
from . import instrument as _instrument
from .drbg import HmacDrbg
from .hashes import DIGEST_SIZES, digest
from .numbers import bit_length_bytes, bytes_to_int, int_to_bytes, modinv
from .primes import generate_proven_prime

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_keypair",
    "sign",
    "verify",
    "encrypt",
    "decrypt",
    "MIN_MODULUS_BITS",
    "PRIME_COUNT",
]

MIN_MODULUS_BITS = 256  # floor for test keys; realistic deployments use >= 2048

#: Primes per modulus (RFC 8017 §3.2 "multi-prime").  Three cost each
#: private-key operation about 30% less than two at 512 bits, and keep
#: every prime at 85 bits or more down to :data:`MIN_MODULUS_BITS`.
PRIME_COUNT = 3

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
    """Multi-prime RSA private key: ``n`` is the product of ``primes``
    (RFC 8017 §3.2), and ``d`` inverts ``e`` modulo ``prod(r - 1)``."""

    n: int
    e: int
    d: int
    primes: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return bit_length_bytes(self.n)

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @cached_property
    def _crt(self) -> tuple[tuple[int, int, int], ...]:
        """``(r_i, d_i, t_i)`` per prime, derived once per key: ``d_i =
        d mod (r_i - 1)`` and ``t_i`` the inverse of ``r_1 * ... *
        r_(i-1)`` modulo ``r_i`` (1 for the first prime).  Cached in the
        instance ``__dict__``, outside the dataclass fields, so equality
        and repr never see it; default pickling copies that dict, so a
        pickled key carries the constants with it."""
        crt = []
        product = 1
        for r in self.primes:
            crt.append((r, self.d % (r - 1), modinv(product, r)))
            product *= r
        return tuple(crt)

    def _private_op(self, c: int) -> int:
        """``c**d mod n``: one exponentiation per prime, recombined by
        Garner's loop (RFC 8017 §5.1.2 step 2.b).  After each step ``m``
        is ``c**d`` modulo ``product``, the primes so far multiplied."""
        (r, d_r, _), *rest = self._crt
        m = pow(c % r, d_r, r)
        product = r
        for r, d_r, t in rest:
            m += product * ((pow(c % r, d_r, r) - m) * t % r)
            product *= r
        return m


def generate_keypair(bits: int, rng: HmacDrbg, e: int = 65537) -> RsaPrivateKey:
    """Generate an RSA keypair with an exactly *bits*-bit modulus.

    The modulus is the product of :data:`PRIME_COUNT` distinct primes
    whose sizes add up to *bits* (171, 171 and 170 at 512), each proven
    prime by a Pocklington certificate
    (:func:`repro.crypto.primes.generate_proven_prime`), and drawn again
    together whenever their product falls one bit short.  *e* must be an
    odd integer >= 3: an even one is never coprime with ``phi``, and
    ``e = 1`` makes every signature the padded message.
    """
    if not isinstance(e, int) or e < 3 or e % 2 == 0:
        raise InvalidKeyError(f"public exponent must be an odd integer >= 3, got {e!r}")
    if bits < MIN_MODULUS_BITS:
        raise InvalidKeyError(f"modulus must be >= {MIN_MODULUS_BITS} bits, got {bits}")
    if bits % 2 != 0:
        raise InvalidKeyError("modulus bit size must be even")
    sizes = [bits // PRIME_COUNT + (i < bits % PRIME_COUNT) for i in range(PRIME_COUNT)]
    while True:
        primes = tuple(generate_proven_prime(size, rng) for size in sizes)
        if len(set(primes)) != PRIME_COUNT:
            continue
        n = prod(primes)
        if n.bit_length() != bits:
            continue
        try:
            d = modinv(e, prod(r - 1 for r in primes))
        except CryptoError:
            continue  # e not coprime with phi; rare, retry
        return RsaPrivateKey(n=n, e=e, d=d, primes=primes)


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
