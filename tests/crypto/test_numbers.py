"""Unit and property tests for repro.crypto.numbers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.numbers import (
    bit_length_bytes,
    bytes_to_int,
    egcd,
    int_to_bytes,
    modinv,
)
from repro.errors import CryptoError


class TestEgcd:
    def test_coprime(self):
        g, x, y = egcd(17, 31)
        assert g == 1
        assert 17 * x + 31 * y == 1

    def test_common_factor(self):
        g, x, y = egcd(12, 18)
        assert g == 6
        assert 12 * x + 18 * y == 6

    def test_zero_right(self):
        assert egcd(7, 0)[0] == 7

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**12))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestModinv:
    def test_small(self):
        assert modinv(3, 7) == 5  # 3*5 = 15 = 1 mod 7

    def test_inverse_property(self):
        inv = modinv(12345, 99991)
        assert (12345 * inv) % 99991 == 1

    def test_no_inverse(self):
        with pytest.raises(CryptoError):
            modinv(6, 9)

    def test_bad_modulus(self):
        with pytest.raises(CryptoError):
            modinv(3, 0)

    def test_negative_input_normalized(self):
        inv = modinv(-3, 7)
        assert (-3 * inv) % 7 == 1

    @given(st.integers(min_value=1, max_value=10**9))
    def test_inverse_mod_prime(self, a):
        p = 2_147_483_647  # Mersenne prime
        a = a % p or 1
        assert (a * modinv(a, p)) % p == 1


class TestByteCodec:
    def test_zero(self):
        assert int_to_bytes(0) == b"\x00"

    def test_fixed_width(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(CryptoError):
            int_to_bytes(-1)

    def test_overflow_rejected(self):
        with pytest.raises(CryptoError):
            int_to_bytes(256, 1)

    @given(st.integers(min_value=0, max_value=2**256 - 1))
    def test_roundtrip(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_bit_length_bytes_consistent(self, n):
        assert len(int_to_bytes(n)) == bit_length_bytes(n)

