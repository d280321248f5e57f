"""``is_prime`` as it was before witnesses waited for base 2.

Trial division by the primes up to 293, then *rounds* witnesses drawn
from *rng* for every survivor, then Miller-Rabin on 13 fixed bases and
the drawn ones.  Its verdicts are the oracle for today's ``is_prime``,
and its draws re-derive the precomputed DH safe primes, which were
found under this order.
"""

from repro.crypto.primes import SMALL_PRIMES

FIXED_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def strong_probable_prime(n, a):
    """One Miller-Rabin round: False when *a* proves odd ``n > 2`` composite."""
    a %= n
    if a in (0, 1, n - 1):
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def oracle_is_prime(n, rng=None, rounds=20):
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    witnesses = list(FIXED_BASES)
    if rng is not None:
        witnesses.extend(rng.randint(2, n - 2) for _ in range(rounds))
    return all(strong_probable_prime(n, a) for a in witnesses)
