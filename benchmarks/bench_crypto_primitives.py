"""C0 — crypto-substrate micro-benchmarks.

Throughput of the primitives every protocol message exercises, pure
Python vs the hashlib-dispatched fast path.  Not a paper artifact, but
the ablation DESIGN.md §5 asks for: it quantifies what the scaled-down
key sizes and the hash dispatcher buy.
"""

import pytest

from repro.crypto import aead, chacha20, kem, rsa, shamir
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import digest
from repro.crypto.hmac_ import hmac_digest

RNG = HmacDrbg(b"crypto-bench")
KEY_512 = rsa.generate_keypair(512, HmacDrbg(b"bench-512"))
KEY_1024 = rsa.generate_keypair(1024, HmacDrbg(b"bench-1024"))
BLOB_4K = RNG.generate(4096)
#: One sealed TPNR evidence box: 3 ChaCha20 blocks, the size every
#: protocol message encrypts.
BLOB_192 = BLOB_4K[:192]
CHACHA20_INPUTS = pytest.mark.parametrize("blob", [BLOB_192, BLOB_4K], ids=["192B", "4KiB"])


@pytest.mark.parametrize("name", ["md5", "sha256"])
def test_bench_hash_fast(benchmark, name):
    benchmark(digest, name, BLOB_4K)


@pytest.mark.parametrize("name", ["md5", "sha256"])
def test_bench_hash_pure(benchmark, name):
    benchmark(digest, name, BLOB_4K, pure=True)


def test_bench_hmac(benchmark):
    benchmark(hmac_digest, b"key" * 8, BLOB_4K)


@CHACHA20_INPUTS
def test_bench_chacha20(benchmark, blob):
    benchmark(chacha20.chacha20_xor, b"k" * 32, b"n" * 12, blob)


def test_bench_aead_seal(benchmark):
    benchmark(aead.seal, b"m" * 32, b"n" * 12, BLOB_4K)


@pytest.mark.parametrize("bits,key", [(512, KEY_512), (1024, KEY_1024)],
                         ids=["512", "1024"])
def test_bench_rsa_sign(benchmark, bits, key):
    benchmark(rsa.sign, key, BLOB_4K)


@pytest.mark.parametrize("bits,key", [(512, KEY_512), (1024, KEY_1024)],
                         ids=["512", "1024"])
def test_bench_rsa_verify(benchmark, bits, key):
    sig = rsa.sign(key, BLOB_4K)
    benchmark(rsa.verify, key.public_key(), BLOB_4K, sig)


def test_bench_rsa_keygen_512(benchmark):
    counter = iter(range(1_000_000))
    benchmark.pedantic(
        lambda: rsa.generate_keypair(512, HmacDrbg(b"kg", str(next(counter)).encode())),
        rounds=3, iterations=1,
    )


def test_bench_hybrid_encrypt(benchmark):
    benchmark(kem.hybrid_encrypt, KEY_512.public_key(), BLOB_4K, RNG)


def test_bench_hybrid_decrypt(benchmark):
    blob = kem.hybrid_encrypt(KEY_512.public_key(), BLOB_4K, RNG)
    benchmark(kem.hybrid_decrypt, KEY_512, blob)


def test_bench_shamir_split(benchmark):
    md5 = digest("md5", BLOB_4K)
    benchmark(shamir.split_digest, md5, 5, 3, RNG)


def test_bench_shamir_recover(benchmark):
    md5 = digest("md5", BLOB_4K)
    shares = shamir.split_digest(md5, 5, 3, RNG)
    benchmark(shamir.recover_digest, shares[:3], 16)


def test_bench_drbg(benchmark):
    benchmark(RNG.generate, 1024)


@CHACHA20_INPUTS
def test_bench_chacha20_lanes(benchmark, blob):
    """The lane-parallel fast path (compare against test_bench_chacha20)."""
    from repro.crypto import chacha20_np

    benchmark(chacha20_np.chacha20_xor, b"k" * 32, b"n" * 12, blob)
