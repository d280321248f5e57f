"""Finite-field Diffie-Hellman key agreement.

Used by the secure-channel handshake (:mod:`repro.net.securechannel`),
which models the SSL sessions the paper's platforms rely on: a signed
ephemeral DH exchange gives each session a fresh master secret, and the
MITM attack in :mod:`repro.attacks.mitm` demonstrates why the signature
(authentication) step is what actually defeats the attack — exactly the
argument of paper §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CryptoError
from .drbg import HmacDrbg
from .hashes import digest
from .numbers import int_to_bytes
from .primes import generate_safe_prime, is_prime

__all__ = ["DhGroup", "DhKeyPair", "default_group", "derive_shared_secret"]


@dataclass(frozen=True)
class DhGroup:
    """A prime-order DH group: safe prime ``p`` and generator ``g``."""

    p: int
    g: int

    def __post_init__(self) -> None:
        if self.p < 5 or not is_prime(self.p):
            raise CryptoError("DH modulus must be prime")
        if not 1 < self.g < self.p - 1:
            raise CryptoError("DH generator out of range")

    @property
    def q(self) -> int:
        """Order of the quadratic-residue subgroup (p is a safe prime)."""
        return (self.p - 1) // 2


@dataclass(frozen=True)
class DhKeyPair:
    """An ephemeral DH keypair bound to its group."""

    group: DhGroup
    private: int
    public: int


# RFC 3526 group 5 (1536-bit MODP) would be realistic but slow in pure
# Python.  These safe primes were generated by generate_safe_prime()
# from the fixed seed HmacDrbg(b"repro/dh/default-group",
# int_to_bytes(bits)), under the earlier witness order of is_prime (20
# witnesses drawn for every candidate that passed trial division).
# They are kept as found, so no handshake moves; the test suite
# re-derives them under that order.  Embedding them avoids a
# multi-second search at import time.
_PRECOMPUTED_SAFE_PRIMES = {
    192: 0xC4A85E19FB471F3B2F17FAF40874EC422BAF148A1D17BC7B,
    256: 0xF72804CC3C4BEECC4E98F466A2D00F370FE0FC7D1FD12F67CE618866610B5DB7,
    512: int(
        "c5afa581cdc3156e84daa0829d9256e3d5dc0dd3e3c60c3709a6e3ef6e785d96"
        "014a3b98d1fa874a6074d053f9a78eb08ed079e1faa580a397768455031176c3",
        16,
    ),
}
_DEFAULT_BITS = 256
_GROUP_CACHE: dict[int, DhGroup] = {}


def default_group(bits: int = _DEFAULT_BITS) -> DhGroup:
    """A reproducible default group for the given modulus size.

    Precomputed sizes (192/256/512) return instantly; other sizes fall
    back to a seeded safe-prime search.
    """
    if bits not in _GROUP_CACHE:
        if bits in _PRECOMPUTED_SAFE_PRIMES:
            p = _PRECOMPUTED_SAFE_PRIMES[bits]
        else:
            rng = HmacDrbg(b"repro/dh/default-group", int_to_bytes(bits))
            p = generate_safe_prime(bits, rng)
        # g = 4 is a square, hence generates the order-q subgroup.
        _GROUP_CACHE[bits] = DhGroup(p=p, g=4)
    return _GROUP_CACHE[bits]


def generate_keypair(group: DhGroup, rng: HmacDrbg) -> DhKeyPair:
    """Ephemeral keypair with private exponent in ``[2, q-1]``."""
    x = rng.randint(2, group.q - 1)
    return DhKeyPair(group=group, private=x, public=pow(group.g, x, group.p))


def derive_shared_secret(keypair: DhKeyPair, peer_public: int) -> bytes:
    """Shared master secret: SHA-256 of the raw DH value.

    Rejects degenerate peer values (0, 1, p-1) that would force the
    shared secret into a tiny subgroup.
    """
    p = keypair.group.p
    if not 1 < peer_public < p - 1:
        raise CryptoError("degenerate DH public value")
    z = pow(peer_public, keypair.private, p)
    return digest("sha256", int_to_bytes(z, (p.bit_length() + 7) // 8))
