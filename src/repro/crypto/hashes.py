"""Hash functions: MD5 and SHA-256 by name, over :mod:`hashlib`.

The paper's platforms rely on MD5 (Content-MD5, AWS import/export logs)
and SHA-256 (Azure SharedKey HMAC).  Every call site goes through
:func:`digest`, which takes the ``hashlib`` constructor for the name
from a table; the test suite checks it against the RFC 1321 and
FIPS 180-2 vectors.
"""

from __future__ import annotations

import hashlib

from ..errors import CryptoError
from . import instrument as _instrument

__all__ = [
    "digest",
    "DIGEST_SIZES",
    "HASH_NAMES",
]

HASH_NAMES = ("md5", "sha256")
DIGEST_SIZES = {"md5": 16, "sha256": 32}

#: The hashlib constructors, called directly: no ``hashlib.new`` by-name
#: dispatch in Python on every digest.
_CONSTRUCTORS = {"md5": hashlib.md5, "sha256": hashlib.sha256}


def digest(name: str, data: bytes) -> bytes:
    """One-shot digest of *data* with the named algorithm."""
    constructor = _CONSTRUCTORS.get(name)
    if constructor is None:
        raise CryptoError(f"unknown hash algorithm: {name!r}")
    observer = _instrument.hash_observer
    if observer is not None:
        observer.hashed(len(data))
    return constructor(data).digest()
