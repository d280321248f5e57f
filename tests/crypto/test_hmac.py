"""HMAC against the stdlib and RFC 4231 vectors.

The package never calls the stdlib HMAC, so here it is an independent
oracle for the package's RFC 2104 construction.
"""

import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac_ import constant_time_equals, hmac_digest, verify_hmac
from repro.errors import CryptoError

# RFC 4231 test cases 1-4 (HMAC-SHA256).
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
]


class TestRfc4231:
    @pytest.mark.parametrize("key,msg,expected", RFC4231)
    def test_vectors(self, key, msg, expected):
        assert hmac_digest(key, msg, "sha256").hex() == expected


class TestAgainstStdlib:
    @pytest.mark.parametrize("name", ["md5", "sha256"])
    @pytest.mark.parametrize("key_len", [0, 1, 63, 64, 65, 200])
    def test_key_length_boundaries(self, name, key_len):
        key, msg = b"k" * key_len, b"boundary message"
        expected = stdlib_hmac.new(key, msg, name).digest()
        assert hmac_digest(key, msg, name) == expected

    @given(st.sampled_from(["md5", "sha256"]), st.binary(max_size=160), st.binary(max_size=512))
    @settings(max_examples=100, deadline=None)
    def test_random(self, name, key, msg):
        expected = stdlib_hmac.new(key, msg, name).digest()
        assert hmac_digest(key, msg, name) == expected


class TestVerify:
    def test_roundtrip(self):
        tag = hmac_digest(b"key", b"msg")
        assert verify_hmac(b"key", b"msg", tag)

    def test_wrong_key(self):
        tag = hmac_digest(b"key", b"msg")
        assert not verify_hmac(b"other", b"msg", tag)

    def test_wrong_message(self):
        tag = hmac_digest(b"key", b"msg")
        assert not verify_hmac(b"key", b"other", tag)

    def test_truncated_tag(self):
        tag = hmac_digest(b"key", b"msg")
        assert not verify_hmac(b"key", b"msg", tag[:-1])

    def test_unknown_hash(self):
        with pytest.raises(CryptoError):
            hmac_digest(b"k", b"m", "sha3")


class TestConstantTimeEquals:
    def test_equal(self):
        assert constant_time_equals(b"abc", b"abc")

    def test_unequal_same_length(self):
        assert not constant_time_equals(b"abc", b"abd")

    def test_unequal_length(self):
        assert not constant_time_equals(b"abc", b"abcd")

    def test_empty(self):
        assert constant_time_equals(b"", b"")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_matches_python_equality(self, a, b):
        assert constant_time_equals(a, b) == (a == b)
