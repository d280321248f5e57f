"""Primality testing and prime generation.

Implements deterministic trial division for small candidates and
Miller-Rabin for large ones, plus generators for proven primes (RSA
keygen), random probable primes, safe primes, and the fixed field prime
used by Shamir secret sharing.  Each test runs from cheapest to
dearest: trial division, one ``gcd`` against the product of the primes
up to :data:`SIEVE_BOUND`, one Miller-Rabin round to base 2, and only
then the remaining rounds.  A random candidate is almost always
composite, and almost every composite stops at one of the first three
steps.

:func:`generate_proven_prime` builds each prime with a Pocklington
certificate (the Shawe-Taylor construction of FIPS 186-4 App. C.6), so
the primes of an RSA key are proven, not probable.

All randomness is drawn from a caller-supplied DRBG
(:class:`repro.crypto.drbg.HmacDrbg`) so that key generation is
reproducible in simulations and tests.  A candidate draws its random
witnesses only once base 2 has passed, and a proven prime draws once
per level of its certificate, so rejected composites consume no DRBG
output.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import TYPE_CHECKING

from ..errors import CryptoError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .drbg import HmacDrbg

__all__ = [
    "SMALL_PRIMES",
    "MERSENNE_521",
    "SIEVE_BOUND",
    "is_prime",
    "miller_rabin",
    "pocklington",
    "generate_proven_prime",
    "PROOF_BASE_BITS",
    "generate_prime",
    "generate_safe_prime",
]

# Primes below 300, used for cheap trial division before Miller-Rabin.
SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293,
)

#: Candidates that pass trial division are sieved by the primes in
#: ``(293, SIEVE_BOUND]`` before Miller-Rabin or Pocklington's test.  For
#: the 171-bit candidates ``2tq + 1`` of a three-prime 512-bit key's
#: proven primes, one gcd against their 11,235-bit product costs about a
#: sixth of Pocklington's two ``pow``s (8.5 vs 51 us).  Keygen took 3.06
#: ms at 2**12, 3.07 at 2**13 and 3.77 at 2**14 (medians of 7
#: interleaved runs of 60 keys, 2-vCPU container), so the bound stays.
SIEVE_BOUND = 1 << 13


def _sieve_product(bound: int) -> int:
    """Product of the primes in ``(SMALL_PRIMES[-1], bound]``.

    Sieve of Eratosthenes: about 2 ms at import, where filtering the
    range through :func:`is_prime` takes about 28 ms.
    """
    composite = bytearray(bound + 1)
    product = 1
    for n in range(2, bound + 1):
        if composite[n]:
            continue
        composite[n * n :: n] = b"\x01" * len(range(n * n, bound + 1, n))
        if n > SMALL_PRIMES[-1]:
            product *= n
    return product


_SIEVE_PRODUCT = _sieve_product(SIEVE_BOUND)

#: The Mersenne prime 2**521 - 1; field modulus for Shamir secret sharing
#: of 256-bit digests (any secret up to 520 bits fits).
MERSENNE_521: int = (1 << 521) - 1


def miller_rabin(n: int, witnesses: list[int]) -> bool:
    """Miller-Rabin primality test of *n* against explicit *witnesses*.

    Returns False when any witness proves compositeness.  ``n`` must be
    odd and > 2.
    """
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Fixed bases after 2 for the test without a DRBG: with base 2 they
# decide every n < 3.3 * 10**24, and are a strong probabilistic test
# beyond that.
_DETERMINISTIC_WITNESSES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def _sifted(n: int) -> bool:
    """Whether *n* > 293 has no prime factor up to :data:`SIEVE_BOUND`:
    trial division by :data:`SMALL_PRIMES`, then one gcd."""
    for p in SMALL_PRIMES:
        if n % p == 0:
            return False
    return n <= SIEVE_BOUND or gcd(n, _SIEVE_PRODUCT) == 1


def is_prime(n: int, rng: "HmacDrbg | None" = None, rounds: int = 19) -> bool:
    """Primality test.

    Trial division by :data:`SMALL_PRIMES`, the :data:`SIEVE_BOUND`
    gcd, then Miller-Rabin to base 2.  A candidate that passes all three
    meets *rounds* random witnesses drawn from *rng* when one is given,
    or the fixed bases up to 41 (a proof below 3.3 * 10**24) when not.
    No witness is drawn before base 2 passes, so a rejected composite
    leaves *rng* untouched.

    The default of 19 rounds matters only to :func:`generate_prime`'s
    random search (the DH safe-prime oracle; RSA keygen proves its
    primes with :func:`generate_proven_prime` instead).  For a random
    171- or 170-bit candidate it bounds the chance of accepting a
    composite at 2**-82.0 and 2**-87.8, by the Damgard-Landrock-Pomerance
    bounds (HAC Fact 4.48).  :func:`generate_prime` forces the top two
    bits, which can at most double either, so both stay below 2**-80
    (DESIGN.md §5 item 5).  18 rounds give 2**-79.9 at k = 171.
    """
    if n <= SMALL_PRIMES[-1]:
        return n in SMALL_PRIMES
    if not _sifted(n) or not miller_rabin(n, [2]):
        return False
    if rng is None:
        return miller_rabin(n, _DETERMINISTIC_WITNESSES)
    return miller_rabin(n, [rng.randint(2, n - 2) for _ in range(rounds)])


def pocklington(q: int, t: int) -> bool:
    """Pocklington's test of ``c = 2tq + 1`` to base 2.

    True when ``z = 2**(2t) mod c`` has ``z**q = 2**(c-1) = 1 (mod c)``
    and ``gcd(z - 1, c) = 1``.  Then every prime factor of ``c`` is
    ``1 mod 2q``, so when *q* is prime and ``q * q > c`` the test is a
    proof that ``c`` is prime.  A prime ``c`` fails it only when the
    order of 2 divides ``2t``.
    """
    c = 2 * t * q + 1
    z = pow(2, 2 * t, c)
    return pow(z, q, c) == 1 and gcd(z - 1, c) == 1


#: Largest size :func:`generate_proven_prime` finds by search instead of
#: by a certificate: below 2**64, :func:`is_prime` without a DRBG (bases
#: 2 to 41, a proof below 3.3 * 10**24) decides primality.
PROOF_BASE_BITS = 64


def generate_proven_prime(bits: int, rng: "HmacDrbg") -> int:
    """Generate a prime with exactly *bits* bits, its top two set, that
    is proven prime (Shawe-Taylor, FIPS 186-4 App. C.6).

    Above :data:`PROOF_BASE_BITS` it first makes a proven prime ``q`` of
    ``bits // 2 + 2`` bits, so that ``q * q >= 2**(bits + 1)`` exceeds
    every candidate, then steps ``c = 2tq + 1`` up from one drawn start
    and returns the first ``c`` that passes trial division, the sieve
    gcd and :func:`pocklington`.  At or below it, the search steps
    through odd numbers and :func:`is_prime` decides.  Either search
    wraps round within the top-two-bits range, and each size draws once,
    so rejected candidates draw nothing.
    """
    if bits < 8:
        raise CryptoError(f"prime size too small: {bits} bits")
    low, top = 3 << (bits - 2), 1 << bits
    if bits <= PROOF_BASE_BITS:
        start = rng.randbits(bits) | low | 1
        for c in chain(range(start, top, 2), range(low | 1, start, 2)):
            if is_prime(c):
                return c
        raise CryptoError(f"no {bits}-bit prime found")
    q = generate_proven_prime(bits // 2 + 2, rng)
    step = 2 * q
    # Smallest and largest t with low <= 2tq + 1 < top, and the t of the
    # first candidate at or above the drawn start.
    first, last = -(-(low - 1) // step), (top - 2) // step
    start = -(-((rng.randbits(bits) | low) - 1) // step)
    for t in chain(range(start, last + 1), range(first, start)):
        c = step * t + 1
        if _sifted(c) and pocklington(q, t):
            return c
    raise CryptoError(f"no {bits}-bit prime of the form 2tq + 1 for q = {q}")


def generate_prime(bits: int, rng: "HmacDrbg") -> int:
    """Generate a random probable prime with exactly *bits* bits.

    Each candidate is a fresh draw with its top two bits forced to 1, so
    that the product of two such primes has exactly ``2 * bits`` bits.
    :func:`generate_safe_prime` searches with it.
    """
    if bits < 8:
        raise CryptoError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.randbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_prime(candidate, rng):
            return candidate


#: Candidate q values :func:`generate_safe_prime` draws before it gives up.
SAFE_PRIME_TRIES = 100000


def generate_safe_prime(bits: int, rng: "HmacDrbg") -> int:
    """Generate a safe prime ``p = 2q + 1`` with *bits* bits.

    Safe primes make every quadratic residue generate the order-q
    subgroup, which is what :mod:`repro.crypto.dh` wants.
    """
    if bits < 16:
        raise CryptoError(f"safe prime size too small: {bits} bits")
    for _ in range(SAFE_PRIME_TRIES):
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if is_prime(p, rng):
            return p
    raise CryptoError(f"no safe prime found in {SAFE_PRIME_TRIES} tries")
