"""Unit tests for repro.crypto.primes."""

import inspect
from math import gcd, log2, prod, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import primes
from repro.crypto.drbg import HmacDrbg
from repro.crypto.primes import (
    MERSENNE_521,
    PROOF_BASE_BITS,
    SIEVE_BOUND,
    SMALL_PRIMES,
    generate_prime,
    generate_proven_prime,
    generate_safe_prime,
    is_prime,
    miller_rabin,
    pocklington,
)
from repro.errors import CryptoError

from .prime_oracle import oracle_is_prime, strong_probable_prime

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

    def test_small_primes_table_consistent(self):
        """SMALL_PRIMES is every prime up to its last entry, in order."""
        by_trial_division = [n for n in range(2, SMALL_PRIMES[-1] + 1)
                             if all(n % d for d in range(2, int(sqrt(n)) + 1))]
        assert list(SMALL_PRIMES) == by_trial_division


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


class CountingDrbg(HmacDrbg):
    """An HmacDrbg that counts its ``generate`` calls: every draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def generate(self, n_bytes):
        self.calls += 1
        return super().generate(n_bytes)


def certificate_levels(bits):
    """Sizes of the primes :func:`generate_proven_prime` makes for one
    *bits*-bit prime, from the base case up."""
    sizes = [bits]
    while sizes[-1] > PROOF_BASE_BITS:
        sizes.append(sizes[-1] // 2 + 2)
    return sizes[::-1]


#: A proven prime q for the Pocklington unit tests: every c = 2tq + 1
#: with t < q / 2 has q * q > c.
_Q = generate_proven_prime(48, HmacDrbg(b"pocklington-q"))


class TestPocklington:
    def test_fixed_q_is_prime(self):
        assert _Q.bit_length() == 48 and oracle_is_prime(_Q, HmacDrbg(b"q"), rounds=40)

    def test_accepts_only_primes_over_a_t_range(self):
        """Every accepted ``c`` is prime by the oracle at 40 random
        rounds, every composite in the range is rejected, and a prime
        ``c`` is rejected only when the order of 2 divides ``2t``."""
        start = 1 << 40
        accepted = composites = 0
        for t in range(start, start + 3000):
            c = 2 * t * _Q + 1
            assert _Q * _Q > c
            prime = oracle_is_prime(c, HmacDrbg(b"pocklington", c.to_bytes(12, "big")), rounds=40)
            if pocklington(_Q, t):
                assert prime, t
                accepted += 1
            elif prime:
                assert pow(2, 2 * t, c) == 1, t
            else:
                composites += 1
        assert accepted > 20 and composites > 2000

    @pytest.mark.parametrize("c, q, t", [(11305, 157, 36), (42799, 1019, 21), (55245, 1973, 14)])
    def test_gcd_rejects_base_2_pseudoprimes(self, c, q, t):
        """Composites with ``2**(c-1) = 1 (mod c)`` and ``q * q > c``:
        only ``gcd(z - 1, c) = 1`` rejects them."""
        assert c == 2 * t * q + 1 and q * q > c and is_prime(q)
        assert pow(2, c - 1, c) == 1 and not oracle_is_prime(c)
        assert not pocklington(q, t)

    def test_small_q_is_no_proof(self):
        """Below the q-size rule the test accepts composites: 2**(c-1) =
        1 for the base-2 pseudoprime 341 = 11 * 31, where c - 1 = 2 * 5
        * 34 and 5 * 5 < 341."""
        assert pocklington(5, 34) and not is_prime(341)

    @pytest.mark.parametrize("bits", [171, 170, 256, 341, 342, 512])
    def test_every_level_meets_the_q_size_rule(self, bits, monkeypatch):
        """Each step of the chain is a Pocklington test with ``q * q >
        c``, its ``q`` is the previous level's prime, and the chain
        starts at a base case of at most :data:`PROOF_BASE_BITS` bits."""
        calls = []

        def recorded(q, t):
            c = 2 * t * q + 1
            assert q * q > c, (q, t)
            accepted = pocklington(q, t)
            calls.append((q, c, accepted))
            return accepted

        monkeypatch.setattr(primes, "pocklington", recorded)
        p = generate_proven_prime(bits, HmacDrbg(b"chain", bits.to_bytes(2, "big")))
        chain = [(q, c) for q, c, accepted in calls if accepted]
        base = chain[0][0]
        assert base.bit_length() <= PROOF_BASE_BITS and is_prime(base)
        assert [q for q, _ in chain[1:]] == [c for _, c in chain[:-1]]
        assert chain[-1][1] == p
        assert [base.bit_length()] + [c.bit_length() for _, c in chain] == certificate_levels(bits)


class TestGenerateProvenPrime:
    @pytest.mark.parametrize("bits", [8, 16, 45, 64, 65, 87, 171, 256])
    def test_size_top_bits_and_primality(self, bits):
        p = generate_proven_prime(bits, HmacDrbg(b"proven", bits.to_bytes(2, "big")))
        assert p.bit_length() == bits and p >> (bits - 2) == 3
        assert oracle_is_prime(p, HmacDrbg(b"proven-oracle"), rounds=40)

    def test_deterministic_from_seed(self):
        assert generate_proven_prime(171, HmacDrbg(b"same")) == generate_proven_prime(171, HmacDrbg(b"same"))

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            generate_proven_prime(7, HmacDrbg(b"x"))

    @pytest.mark.parametrize("bits", [64, 65, 170, 171, 512])
    def test_one_draw_per_level(self, bits):
        """Rejected candidates draw nothing: one draw per certificate
        level, however many candidates each level tried."""
        rng = CountingDrbg(b"draws" + bits.to_bytes(2, "big"))
        generate_proven_prime(bits, rng)
        assert rng.calls == len(certificate_levels(bits))


class TestSafePrime:
    def test_structure(self):
        rng = HmacDrbg(b"safe")
        p = generate_safe_prime(48, rng)
        assert is_prime(p)
        assert is_prime((p - 1) // 2)

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            generate_safe_prime(8, HmacDrbg(b"x"))


# -- cheap tests first: the verdict holds and composites draw nothing ------


def primes_below(bound):
    composite = bytearray(bound)
    found = []
    for n in range(2, bound):
        if not composite[n]:
            found.append(n)
            composite[n * n :: n] = b"\x01" * len(range(n * n, bound, n))
    return found


_PRIMES = primes_below(2 * SIEVE_BOUND)
_SIEVE_PRIMES = frozenset(p for p in _PRIMES if p <= SIEVE_BOUND)
_SIEVE_PRODUCT = prod(_SIEVE_PRIMES)
_ABOVE_TRIAL = [p for p in _PRIMES if p > SMALL_PRIMES[-1]][:4]
_BELOW_BOUND = [p for p in _PRIMES if p <= SIEVE_BOUND][-4:]
_ABOVE_BOUND = [p for p in _PRIMES if p > SIEVE_BOUND][:4]
#: Smallest factors of the built composites: just past trial division
#: and on either side of the sieve bound.
EDGE_FACTORS = _ABOVE_TRIAL + _BELOW_BOUND + _ABOVE_BOUND
#: Primes p with 2p - 1 prime and p * (2p - 1) a strong pseudoprime to
#: base 2: composites of 27 to 510 bits that only the drawn witnesses
#: reject.
_PSEUDOPRIME_FACTORS = [8209, 0x80000039DD, 0x8000000000000000000000000000A3CD, (1 << 254) | 0x15975]
BASE_2_PSEUDOPRIMES = [p * (2 * p - 1) for p in _PSEUDOPRIME_FACTORS]


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


def expected_draws(n, rounds):
    """``randint`` calls ``is_prime(n, rng, rounds)`` should make: none
    when trial division, the sieve or base 2 decides *n*, else *rounds*."""
    if n < 2 or n in SMALL_PRIMES:
        return 0
    if n not in _SIEVE_PRIMES and gcd(n, _SIEVE_PRODUCT) != 1:
        return 0
    return rounds if strong_probable_prime(n, 2) else 0


DEFAULT_ROUNDS = inspect.signature(is_prime).parameters["rounds"].default


def dlp_bound_log2(k, t):
    """log2 of the Damgard-Landrock-Pomerance bound on the chance that a
    random odd k-bit integer passing t random-base Miller-Rabin rounds is
    composite: ``k**1.5 * 2**t * t**-0.5 * 4**(2 - sqrt(t * k))``, valid
    for k >= 21 and 3 <= t <= k / 9 (HAC Fact 4.48, Table 4.4)."""
    assert k >= 21 and 3 <= t <= k / 9, (k, t)
    return 1.5 * log2(k) + t - 0.5 * log2(t) + 2 * (2 - sqrt(t * k))


def dlp_bound_many_rounds_log2(k, t):
    """log2 of the same bound's form for more rounds, ``(7/20) k 2**-5t
    + (1/7) k**(15/4) 2**(-k/2 - 2t) + 12 k 2**(-k/4 - 3t)``, valid for
    k >= 21 and k / 9 <= t <= k / 4 (HAC Fact 4.48)."""
    assert k >= 21 and k / 9 <= t <= k / 4, (k, t)
    return log2(7 / 20 * k * 2 ** (-5 * t)
                + k ** 3.75 / 7 * 2 ** (-k / 2 - 2 * t)
                + 12 * k * 2 ** (-k / 4 - 3 * t))


class TestRounds:
    """The candidates of :func:`generate_prime` have their top two bits
    set, so they are half the k-bit range, which can at most double the
    chance: each bound must hold with one bit to spare.  The sizes are
    those of a three-prime 512-bit key's primes, were they searched for
    by random draws; keygen proves its primes instead."""

    def test_bound_formula(self):
        assert dlp_bound_log2(256, 12) == pytest.approx(-84.64, abs=0.01)
        assert dlp_bound_log2(512, 12) == pytest.approx(-129.06, abs=0.01)
        assert dlp_bound_log2(171, 19) == pytest.approx(-82.00, abs=0.01)
        assert dlp_bound_many_rounds_log2(170, 19) == pytest.approx(-87.77, abs=0.01)

    def test_default_rounds_meet_2_to_minus_80_at_171_bits(self):
        """The two larger primes of a three-prime 512-bit key."""
        assert dlp_bound_log2(171, DEFAULT_ROUNDS) + 1 <= -80

    def test_default_rounds_meet_2_to_minus_80_at_170_bits(self):
        """The smallest prime of a three-prime 512-bit key, where 19
        rounds exceed k / 9 and the many-rounds form applies."""
        assert DEFAULT_ROUNDS > 170 / 9
        assert dlp_bound_many_rounds_log2(170, DEFAULT_ROUNDS) + 1 <= -80

    def test_default_rounds_meet_2_to_minus_80_at_256_bits(self):
        """Primes of a two-prime 512-bit key, and of a three-prime
        768-bit one."""
        assert dlp_bound_log2(256, DEFAULT_ROUNDS) + 1 <= -80


class TestSieveEquivalence:
    """Each verdict matches the old ``is_prime`` (witnesses drawn before
    any test), a candidate that trial division, the sieve or base 2
    rejects leaves the DRBG untouched, and one that passes base 2 draws
    exactly ``rounds`` witnesses."""

    def test_edge_factors_straddle_the_bound(self):
        assert max(_BELOW_BOUND) <= SIEVE_BOUND < min(_ABOVE_BOUND)
        assert min(_ABOVE_TRIAL) > SMALL_PRIMES[-1]

    def test_pseudoprimes_reach_the_drawn_witnesses(self):
        for p, n in zip(_PSEUDOPRIME_FACTORS, BASE_2_PSEUDOPRIMES):
            assert oracle_is_prime(p) and oracle_is_prime(2 * p - 1) and p > SIEVE_BOUND
            assert strong_probable_prime(n, 2)
            assert expected_draws(n, DEFAULT_ROUNDS) == DEFAULT_ROUNDS

    def test_every_n_below_2_17(self):
        """Below SIEVE_BOUND**2 every sieve survivor is prime, so this
        pins trial division and the sieve; the base-2 pseudoprimes of
        test_large_candidates pin the base-2 step."""
        rng, twin = HmacDrbg(b"sieve-exhaustive"), HmacDrbg(b"sieve-exhaustive")
        for n in range(2**17):
            assert is_prime(n, rng) == oracle_is_prime(n), n
            for _ in range(expected_draws(n, DEFAULT_ROUNDS)):
                twin.randint(2, n - 2)
            assert rng.generate(32) == twin.generate(32), n

    @given(
        kind=st.sampled_from(["random", "edge-composite", "prime", "base-2-pseudoprime"]),
        bits=st.integers(min_value=64, max_value=512),
        factor=st.sampled_from(EDGE_FACTORS),
        pseudoprime=st.sampled_from(BASE_2_PSEUDOPRIMES),
        # Fewer rounds would let a pseudoprime through often enough to flake.
        rounds=st.sampled_from([DEFAULT_ROUNDS, 20]),
        seed=st.binary(min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_large_candidates(self, kind, bits, factor, pseudoprime, rounds, seed):
        start = HmacDrbg(seed).randbits(bits) | (1 << (bits - 1))
        if kind == "edge-composite":
            n = with_smallest_factor(factor, start >> factor.bit_length())
        elif kind == "prime":
            n = oracle_next_prime(start)
        elif kind == "base-2-pseudoprime":
            n = pseudoprime
        else:
            n = start | 1
        rng, twin = HmacDrbg(seed), HmacDrbg(seed)
        assert is_prime(n, rng, rounds) == oracle_is_prime(n, HmacDrbg(seed))
        for _ in range(expected_draws(n, rounds)):
            twin.randint(2, n - 2)
        assert rng.generate(32) == twin.generate(32)
        if kind in ("edge-composite", "base-2-pseudoprime"):
            assert not is_prime(n)
