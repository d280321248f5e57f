"""HMAC (RFC 2104) built on the hash substrate.

The Azure-style SharedKey authentication in
:mod:`repro.storage.azurelike` and the secure-channel record layer in
:mod:`repro.net.securechannel` both authenticate with HMAC-SHA256, the
scheme the paper's Table 1 shows.  The package has one HMAC
construction, :func:`rfc2104_hmac`: RFC 2104 written over any hash
constructor whose objects have a ``.digest()`` method, with the key
pads made by ``bytes.translate``.  Over ``hashlib`` it costs two C
digests and no per-byte Python work, which is cheaper than the stdlib
one-shot ``hmac.digest``.  ``hmac_digest`` runs it over the ``hashlib``
constructor for a hash name; the DRBG calls it with ``hashlib.sha256``
directly.  The tests check it against the RFC 4231 vectors and the
stdlib HMAC.
"""

from __future__ import annotations

from hmac import compare_digest

from ..errors import CryptoError
from .hashes import _CONSTRUCTORS

__all__ = ["rfc2104_hmac", "hmac_digest", "constant_time_equals"]

_BLOCK_SIZE = 64  # both MD5 and SHA-256 use 64-byte blocks
#: ``key.translate(table)`` XORs every byte of a padded key with the
#: RFC 2104 pad byte in one C call.
_OPAD = bytes(b ^ 0x5C for b in range(256))
_IPAD = bytes(b ^ 0x36 for b in range(256))


def rfc2104_hmac(new, key: bytes, message: bytes) -> bytes:
    """HMAC of *message* under *key* over the hash constructor *new*."""
    if len(key) > _BLOCK_SIZE:
        key = new(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return new(key.translate(_OPAD) + new(key.translate(_IPAD) + message).digest()).digest()


def hmac_digest(key: bytes, message: bytes, name: str = "sha256") -> bytes:
    """HMAC of *message* under *key* with the named hash."""
    new = _CONSTRUCTORS.get(name)
    if new is None:
        raise CryptoError(f"unknown hash algorithm: {name!r}")
    return rfc2104_hmac(new, key, message)


def constant_time_equals(a: bytes, b: bytes) -> bool:
    """Timing-safe byte-string comparison.

    The simulator has no real side channels, but verification sites use
    this anyway so the code models the correct practice.
    """
    return compare_digest(a, b)
