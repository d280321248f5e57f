"""Primality testing and prime generation.

Implements deterministic trial division for small candidates and
Miller-Rabin for large ones, plus generators for random primes, safe
primes, and the fixed field prime used by Shamir secret sharing.
Each test runs from cheapest to dearest: trial division, one ``gcd``
against the product of the primes up to :data:`SIEVE_BOUND`, one
Miller-Rabin round to base 2, and only then the remaining rounds.  A
random candidate is almost always composite, and almost every
composite stops at one of the first three steps.

All randomness is drawn from a caller-supplied DRBG
(:class:`repro.crypto.drbg.HmacDrbg`) so that key generation is
reproducible in simulations and tests.  A candidate draws its random
witnesses only once base 2 has passed, so the composites keygen
rejects consume no DRBG output.
"""

from __future__ import annotations

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
#: ``(293, SIEVE_BOUND]`` before Miller-Rabin.  For the 171-bit primes of
#: a three-prime 512-bit key, one gcd against their 11,235-bit product
#: costs about a fifth of a Miller-Rabin ``pow`` (8.7 vs 48 us) and
#: spares about 12 of the 35 base-2 ``pow``s per key; 2**12 halves the
#: gcd but spares 1.7 fewer, and 2**14 doubles it for 1.6 more.  Keygen
#: took 6.73 ms at 2**12, 6.74 at 2**13 and 6.98 at 2**14 (medians of 7
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


def is_prime(n: int, rng: "HmacDrbg | None" = None, rounds: int = 19) -> bool:
    """Primality test.

    Trial division by :data:`SMALL_PRIMES`, the :data:`SIEVE_BOUND`
    gcd, then Miller-Rabin to base 2.  A candidate that passes all three
    meets *rounds* random witnesses drawn from *rng* when one is given,
    or the fixed bases up to 41 (a proof below 3.3 * 10**24) when not.
    No witness is drawn before base 2 passes, so a rejected composite
    leaves *rng* untouched.

    The default of 19 rounds bounds the chance that a random 171- or
    170-bit candidate (the primes of a three-prime 512-bit key) is
    accepted as prime but composite at 2**-82.0 and 2**-87.8, by the
    Damgard-Landrock-Pomerance bounds (HAC Fact 4.48).  Keygen forces
    the top two bits, which can at most double either, so both stay
    below 2**-80 (DESIGN.md §5 item 5).  18 rounds give 2**-79.9 at
    k = 171.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n > SIEVE_BOUND and gcd(n, _SIEVE_PRODUCT) != 1:
        return False
    if not miller_rabin(n, [2]):
        return False
    if rng is None:
        return miller_rabin(n, _DETERMINISTIC_WITNESSES)
    return miller_rabin(n, [rng.randint(2, n - 2) for _ in range(rounds)])


def generate_prime(bits: int, rng: "HmacDrbg") -> int:
    """Generate a random prime with exactly *bits* bits.

    The top two bits are forced to 1 so that the product of two such
    primes has exactly ``2 * bits`` bits, and that of three misses the
    summed size only rarely (RSA keygen redraws then).
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
