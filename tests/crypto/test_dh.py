"""Diffie-Hellman key agreement."""

import pytest

from repro.crypto import dh, primes
from repro.crypto.drbg import HmacDrbg
from repro.crypto.numbers import int_to_bytes
from repro.crypto.primes import generate_safe_prime, is_prime
from repro.errors import CryptoError

from .prime_oracle import oracle_is_prime


@pytest.fixture(scope="module")
def group():
    return dh.default_group()


class TestGroup:
    def test_default_group_is_safe_prime(self, group):
        assert is_prime(group.p)
        assert is_prime(group.q)
        assert group.p == 2 * group.q + 1

    def test_default_group_cached(self, group):
        assert dh.default_group() is group

    def test_precomputed_sizes(self):
        for bits in (192, 256, 512):
            g = dh.default_group(bits)
            assert g.p.bit_length() == bits
            assert is_prime(g.p) and is_prime(g.q)

    @pytest.mark.slow
    def test_precomputed_matches_seeded_search(self, monkeypatch):
        """The embedded constant really is what the seed derives, under
        the witness order it was found with (see ``prime_oracle``)."""
        monkeypatch.setattr(primes, "is_prime", oracle_is_prime)
        rng = HmacDrbg(b"repro/dh/default-group", int_to_bytes(192))
        assert generate_safe_prime(192, rng) == dh.default_group(192).p

    def test_generator_generates_subgroup(self, group):
        assert pow(group.g, group.q, group.p) == 1

    def test_composite_modulus_rejected(self):
        with pytest.raises(CryptoError):
            dh.DhGroup(p=15, g=4)

    def test_bad_generator_rejected(self, group):
        with pytest.raises(CryptoError):
            dh.DhGroup(p=group.p, g=1)


class TestKeyAgreement:
    def test_shared_secret_agrees(self, group):
        rng = HmacDrbg(b"dh-agree")
        a = dh.generate_keypair(group, rng)
        b = dh.generate_keypair(group, rng)
        assert dh.derive_shared_secret(a, b.public) == dh.derive_shared_secret(b, a.public)

    def test_secret_is_32_bytes(self, group):
        rng = HmacDrbg(b"dh-size")
        a = dh.generate_keypair(group, rng)
        b = dh.generate_keypair(group, rng)
        assert len(dh.derive_shared_secret(a, b.public)) == 32

    def test_different_pairs_different_secrets(self, group):
        rng = HmacDrbg(b"dh-diff")
        a, b, c = (dh.generate_keypair(group, rng) for _ in range(3))
        assert dh.derive_shared_secret(a, b.public) != dh.derive_shared_secret(a, c.public)

    def test_public_value_in_group(self, group):
        rng = HmacDrbg(b"dh-range")
        keypair = dh.generate_keypair(group, rng)
        assert 1 < keypair.public < group.p - 1

    @pytest.mark.parametrize("degenerate", [0, 1])
    def test_degenerate_peer_rejected(self, group, degenerate):
        rng = HmacDrbg(b"dh-degenerate")
        a = dh.generate_keypair(group, rng)
        with pytest.raises(CryptoError):
            dh.derive_shared_secret(a, degenerate)

    def test_p_minus_one_rejected(self, group):
        rng = HmacDrbg(b"dh-pm1")
        a = dh.generate_keypair(group, rng)
        with pytest.raises(CryptoError):
            dh.derive_shared_secret(a, group.p - 1)
