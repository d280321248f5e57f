"""Unit tests for repro.crypto.primes."""

from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.primes import (
    MERSENNE_521,
    SIEVE_BOUND,
    SMALL_PRIMES,
    generate_prime,
    generate_safe_prime,
    is_prime,
    miller_rabin,
    next_prime,
)
from repro.errors import CryptoError

KNOWN_PRIMES = [2, 3, 5, 7, 97, 101, 7919, 104729, 2_147_483_647]
KNOWN_COMPOSITES = [1, 4, 9, 100, 561, 1105, 6601, 8911, 2_147_483_649]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911]


class TestIsPrime:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_composites(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers(self, n):
        """Carmichael numbers fool Fermat but not Miller-Rabin."""
        assert not is_prime(n)

    def test_below_two(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)

    def test_mersenne_521_is_prime(self):
        assert is_prime(MERSENNE_521)

    def test_extra_random_witnesses(self):
        rng = HmacDrbg(b"witnesses")
        assert is_prime(2_147_483_647, rng=rng, rounds=5)
        assert not is_prime(2_147_483_647 * 3, rng=rng, rounds=5)

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=200)
    def test_agrees_with_trial_division(self, n):
        by_division = all(n % d for d in range(2, int(n**0.5) + 1)) and n >= 2
        assert is_prime(n) == by_division


class TestMillerRabin:
    def test_witness_finds_composite(self):
        assert not miller_rabin(221, [137])  # 137 is a witness for 221 = 13*17

    def test_strong_liar_passes(self):
        assert miller_rabin(221, [174])  # 174 is a strong liar for 221


class TestGeneratePrime:
    @pytest.mark.parametrize("bits", [16, 64, 256])
    def test_bit_length_exact(self, bits):
        rng = HmacDrbg(b"genprime")
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_prime(p)

    def test_odd(self):
        rng = HmacDrbg(b"genprime-odd")
        assert generate_prime(32, rng) % 2 == 1

    def test_deterministic_from_seed(self):
        assert generate_prime(64, HmacDrbg(b"same")) == generate_prime(64, HmacDrbg(b"same"))

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            generate_prime(4, HmacDrbg(b"x"))

    def test_top_two_bits_set(self):
        """Product of two such primes has exactly 2*bits bits."""
        rng = HmacDrbg(b"topbits")
        for _ in range(3):
            p = generate_prime(64, rng)
            q = generate_prime(64, rng)
            assert (p * q).bit_length() == 128


class TestSafePrime:
    def test_structure(self):
        rng = HmacDrbg(b"safe")
        p = generate_safe_prime(48, rng)
        assert is_prime(p)
        assert is_prime((p - 1) // 2)

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            generate_safe_prime(8, HmacDrbg(b"x"))


class TestNextPrime:
    @pytest.mark.parametrize("n,expected", [(0, 2), (2, 3), (3, 5), (10, 11), (7918, 7919)])
    def test_known(self, n, expected):
        assert next_prime(n) == expected

    def test_small_primes_table_consistent(self):
        for a, b in zip(SMALL_PRIMES, SMALL_PRIMES[1:]):
            assert next_prime(a) == b


# -- the sieve changes no verdict and no DRBG draw --------------------------


def oracle_is_prime(n, rng=None, rounds=20):
    """``is_prime`` as it was before the gcd sieve: trial division by the
    primes up to 293, then Miller-Rabin on 13 fixed and *rounds* drawn
    witnesses."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    witnesses = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    if rng is not None:
        witnesses.extend(rng.randint(2, n - 2) for _ in range(rounds))
    d, r = n - 1, 0
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


def primes_below(bound):
    composite = bytearray(bound)
    found = []
    for n in range(2, bound):
        if not composite[n]:
            found.append(n)
            composite[n * n :: n] = b"\x01" * len(range(n * n, bound, n))
    return found


_PRIMES = primes_below(2 * SIEVE_BOUND)
_ABOVE_TRIAL = [p for p in _PRIMES if p > SMALL_PRIMES[-1]][:4]
_BELOW_BOUND = [p for p in _PRIMES if p <= SIEVE_BOUND][-4:]
_ABOVE_BOUND = [p for p in _PRIMES if p > SIEVE_BOUND][:4]
#: Smallest factors of the built composites: just past trial division
#: and on either side of the sieve bound.
EDGE_FACTORS = _ABOVE_TRIAL + _BELOW_BOUND + _ABOVE_BOUND


def with_smallest_factor(p, start):
    """``p * m`` for the first odd ``m >= start`` with no prime factor
    below *p*, so *p* is the smallest factor of the result."""
    smaller = prod(q for q in _PRIMES if q < p)
    m = start | 1
    while gcd(m, smaller) != 1:
        m += 2
    return p * m


def oracle_next_prime(start):
    n = start | 1
    while not oracle_is_prime(n):
        n += 2
    return n


class TestSieveEquivalence:
    """Each verdict matches the pre-sieve oracle, and the DRBG is left
    where the oracle leaves it, so every key drawn from a seed is the
    same key."""

    def test_edge_factors_straddle_the_bound(self):
        assert max(_BELOW_BOUND) <= SIEVE_BOUND < min(_ABOVE_BOUND)
        assert min(_ABOVE_TRIAL) > SMALL_PRIMES[-1]

    def test_every_n_below_2_17(self):
        rng, oracle_rng = HmacDrbg(b"sieve-exhaustive"), HmacDrbg(b"sieve-exhaustive")
        for n in range(2**17):
            assert is_prime(n, rng) == oracle_is_prime(n, oracle_rng), n
            if n % 4096 == 0:
                assert rng.generate(32) == oracle_rng.generate(32), n
        assert rng.generate(32) == oracle_rng.generate(32)

    @given(
        kind=st.sampled_from(["random", "edge-composite", "prime"]),
        bits=st.integers(min_value=64, max_value=512),
        factor=st.sampled_from(EDGE_FACTORS),
        seed=st.binary(min_size=1, max_size=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_large_candidates(self, kind, bits, factor, seed):
        start = HmacDrbg(seed).randbits(bits) | (1 << (bits - 1))
        if kind == "edge-composite":
            n = with_smallest_factor(factor, start >> factor.bit_length())
        elif kind == "prime":
            n = oracle_next_prime(start)
        else:
            n = start | 1
        rng, oracle_rng = HmacDrbg(seed), HmacDrbg(seed)
        assert is_prime(n, rng) == oracle_is_prime(n, oracle_rng)
        assert rng.generate(32) == oracle_rng.generate(32)
        if kind == "edge-composite":
            assert not is_prime(n)
