"""``digest`` against the published MD5/SHA-256 vectors and hashlib."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import digest, hexdigest
from repro.errors import CryptoError

# RFC 1321 appendix A.5 test suite.
MD5_VECTORS = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
    (
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f",
    ),
    (
        b"1234567890" * 8,
        "57edf4a22be3c955ac49da2e2107b67a",
    ),
]

# FIPS 180-4 / NIST examples.
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


class TestMd5Vectors:
    @pytest.mark.parametrize("data,expected", MD5_VECTORS)
    def test_rfc1321(self, data, expected):
        assert digest("md5", data).hex() == expected


class TestSha256Vectors:
    @pytest.mark.parametrize("data,expected", SHA256_VECTORS)
    def test_fips(self, data, expected):
        assert digest("sha256", data).hex() == expected

    def test_million_a(self):
        assert digest("sha256", b"a" * 1_000_000).hex() == (
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )


class TestAgainstHashlib:
    """Each name maps to its own hashlib constructor."""

    @pytest.mark.parametrize("name", ["md5", "sha256"])
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", b"x" * 55, b"x" * 56, b"x" * 63, b"x" * 64, b"x" * 65, b"x" * 1000],
    )
    def test_padding_boundaries(self, name, data):
        """Lengths around the 64-byte block/padding boundaries."""
        assert digest(name, data) == hashlib.new(name, data).digest()

    @given(st.binary(max_size=2048))
    @settings(max_examples=50)
    def test_md5_random(self, data):
        assert digest("md5", data) == hashlib.md5(data).digest()

    @given(st.binary(max_size=2048))
    @settings(max_examples=50)
    def test_sha256_random(self, data):
        assert digest("sha256", data) == hashlib.sha256(data).digest()


class TestDispatch:
    def test_unknown_algorithm(self):
        for name in ("sha1", "SHA256", "", "sha-256"):
            with pytest.raises(CryptoError):
                digest(name, b"data")

    def test_hexdigest(self):
        assert hexdigest("md5", b"abc") == "900150983cd24fb0d6963f7d28e17f72"
