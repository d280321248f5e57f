"""The pure-Python MD5/SHA-256 against hashlib and published vectors."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import MD5, SHA256, digest, hexdigest
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
        assert MD5(data).hexdigest() == expected


class TestSha256Vectors:
    @pytest.mark.parametrize("data,expected", SHA256_VECTORS)
    def test_fips(self, data, expected):
        assert SHA256(data).hexdigest() == expected

    def test_million_a(self):
        h = SHA256()
        for _ in range(1000):
            h.update(b"a" * 1000)
        assert h.hexdigest() == (
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )


class TestAgainstHashlib:
    @pytest.mark.parametrize("name", ["md5", "sha256"])
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", b"x" * 55, b"x" * 56, b"x" * 63, b"x" * 64, b"x" * 65, b"x" * 1000],
    )
    def test_padding_boundaries(self, name, data):
        """Lengths around the 64-byte block/padding boundaries."""
        assert digest(name, data, pure=True) == hashlib.new(name, data).digest()

    @given(st.binary(max_size=2048))
    @settings(max_examples=50)
    def test_md5_random(self, data):
        assert digest("md5", data, pure=True) == hashlib.md5(data).digest()

    @given(st.binary(max_size=2048))
    @settings(max_examples=50)
    def test_sha256_random(self, data):
        assert digest("sha256", data, pure=True) == hashlib.sha256(data).digest()


class TestIncremental:
    @pytest.mark.parametrize("cls,ref", [(MD5, hashlib.md5), (SHA256, hashlib.sha256)])
    def test_update_chunks_equal_one_shot(self, cls, ref):
        h = cls()
        for chunk in (b"one", b"two", b"three" * 40, b""):
            h.update(chunk)
        assert h.digest() == ref(b"onetwo" + b"three" * 40).digest()

    @pytest.mark.parametrize("cls", [MD5, SHA256])
    def test_digest_does_not_consume_state(self, cls):
        h = cls(b"partial")
        first = h.digest()
        assert h.digest() == first
        h.update(b" more")
        assert h.digest() != first

    @pytest.mark.parametrize("cls", [MD5, SHA256])
    def test_copy_is_independent(self, cls):
        h = cls(b"base")
        clone = h.copy()
        clone.update(b"diverge")
        assert h.digest() != clone.digest()
        assert h.digest() == cls(b"base").digest()


class TestDispatch:
    def test_unknown_algorithm(self):
        for name in ("sha1", "SHA256", "", "sha-256"):
            for pure in (False, True):
                with pytest.raises(CryptoError):
                    digest(name, b"data", pure=pure)

    @given(st.sampled_from(["md5", "sha256"]), st.binary(max_size=300))
    @settings(max_examples=80)
    def test_pure_and_fast_agree(self, name, data):
        assert digest(name, data, pure=True) == digest(name, data, pure=False)

    def test_hexdigest(self):
        assert hexdigest("md5", b"abc") == "900150983cd24fb0d6963f7d28e17f72"
