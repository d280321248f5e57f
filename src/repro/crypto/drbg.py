"""Deterministic random bit generator (HMAC-DRBG, NIST SP 800-90A style).

All randomness in the library — key generation, nonces, simulated
network jitter, workload generation — flows through instances of
:class:`HmacDrbg` so that every experiment is reproducible bit-for-bit
from its seed.  This is the "deterministic simulation" design decision
recorded in DESIGN.md §5.

Every header nonce and every channel-dice block is one draw, and each
block costs one HMAC-SHA256: :func:`repro.crypto.hmac_.rfc2104_hmac`
over ``hashlib.sha256``, bound once at import and called directly, not
through the :func:`repro.crypto.hmac_.hmac_digest` dispatcher.  The
tests check this generator against an SP 800-90A reference built on the
stdlib HMAC.
"""

from __future__ import annotations

from hashlib import sha256 as _sha256

from ..errors import CryptoError
from .hmac_ import rfc2104_hmac as _hmac

__all__ = ["HmacDrbg"]


class HmacDrbg:
    """HMAC-SHA256 based DRBG with convenience integer/float draws.

    The update/generate loop follows SP 800-90A's HMAC_DRBG; reseeding
    and prediction resistance are out of scope for a simulator.
    """

    def __init__(self, seed: bytes | str | int, personalization: bytes = b"") -> None:
        if isinstance(seed, str):
            seed = seed.encode()
        elif isinstance(seed, int):
            if seed < 0:
                raise CryptoError(f"integer seed must be non-negative, got {seed}")
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._update(seed + personalization)

    def _update(self, provided: bytes = b"") -> None:
        key = _hmac(_sha256, self._key, self._value + b"\x00" + provided)
        value = _hmac(_sha256, key, self._value)
        if provided:
            key = _hmac(_sha256, key, value + b"\x01" + provided)
            value = _hmac(_sha256, key, value)
        self._key = key
        self._value = value

    def generate(self, n_bytes: int) -> bytes:
        """Return *n_bytes* pseudo-random bytes."""
        if n_bytes < 0:
            raise CryptoError("cannot generate a negative number of bytes")
        key = self._key
        value = self._value
        blocks = []
        for _ in range((n_bytes + 31) // 32):
            value = _hmac(_sha256, key, value)
            blocks.append(value)
        self._value = value
        self._update()
        return b"".join(blocks)[:n_bytes]

    # -- convenience draws -------------------------------------------------

    def randbits(self, bits: int) -> int:
        """Uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise CryptoError("bits must be positive")
        n_bytes = (bits + 7) // 8
        value = int.from_bytes(self.generate(n_bytes), "big")
        return value >> (n_bytes * 8 - bits)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``.

        Uses rejection sampling so the distribution is exactly uniform.
        """
        if low > high:
            raise CryptoError(f"empty range [{low}, {high}]")
        span = high - low + 1
        bits = span.bit_length()
        while True:
            value = self.randbits(bits)
            if value < span:
                return low + value

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return self.randbits(53) / (1 << 53)

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        if not seq:
            raise CryptoError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def fork(self, label: str | bytes) -> "HmacDrbg":
        """Derive an independent child generator.

        Children with distinct labels produce independent streams;
        forking does not perturb the parent's own stream beyond one
        generate call.
        """
        if isinstance(label, str):
            label = label.encode()
        return HmacDrbg(self.generate(32), personalization=label)
