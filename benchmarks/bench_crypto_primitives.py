"""C0 — crypto-substrate micro-benchmarks.

Throughput of the primitives every protocol message exercises.  Not
a paper artifact, but the ablation DESIGN.md §5 asks for: it
quantifies what the scaled-down key sizes buy, and the pure-Python
ChaCha20 against its lane-parallel fast path.
"""

import pytest

from repro.crypto import aead, chacha20, kem, merkle, primes, rsa, shamir
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


@pytest.mark.parametrize("blob", [BLOB_4K[:33], BLOB_4K], ids=["33B", "4KiB"])
def test_bench_hmac(benchmark, blob):
    """33 B is one DRBG update: a 32-byte value and a separator byte."""
    benchmark(hmac_digest, b"key" * 8, blob)


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
    """One key from a fixed seed, so every round does the same work."""
    benchmark.pedantic(
        lambda: rsa.generate_keypair(512, HmacDrbg(b"bench-keygen")),
        rounds=5, iterations=1,
    )


#: An odd 256-bit composite with no prime factor up to ``SIEVE_BOUND``:
#: keygen's usual candidate, rejected by one base-2 ``pow`` and no draw.
SIEVED_COMPOSITE_256 = 0xE9DCB1BD244C20249E8770BF4626AC6EF11003E2A27406628B300188EC893BB9


def test_bench_is_prime_sieved_composite(benchmark):
    assert benchmark(primes.is_prime, SIEVED_COMPOSITE_256, RNG) is False


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


@pytest.mark.parametrize("n_bytes", [16, 32, 1024], ids=["16B", "32B", "1KiB"])
def test_bench_drbg(benchmark, n_bytes):
    """16 B is a header nonce, 32 B one block of channel dice."""
    benchmark(RNG.generate, n_bytes)


def test_bench_merkle_node_digest(benchmark):
    """One interior Merkle node: the node domain plus two 32-byte children."""
    benchmark(digest, "sha256", merkle._NODE_DOMAIN + BLOB_4K[:32] + BLOB_4K[32:64])


@CHACHA20_INPUTS
def test_bench_chacha20_lanes(benchmark, blob):
    """The lane-parallel fast path (compare against test_bench_chacha20)."""
    from repro.crypto import chacha20_np

    benchmark(chacha20_np.chacha20_xor, b"k" * 32, b"n" * 12, blob)


@pytest.fixture(scope="module")
def durable_round_records():
    """Every record the parties of one durable, 3-way replicated round
    hand their logs, payload fields already swapped for blob references
    by the journals: 40 uploads of 1-64 KiB, each read back, one in ten
    rewritten by the provider first (so the snapshots carry forged
    payloads too)."""
    import random

    from repro.core.protocol import make_deployment
    from repro.durability.wal import WriteAheadLog
    from repro.net.channel import WAN
    from repro.replication.store import ReplicatedStore, attach_replication

    records = []
    append = WriteAheadLog.append

    def recording(wal, record):
        records.append(record)
        return append(wal, record)

    WriteAheadLog.append = recording
    try:
        dep = make_deployment(seed=b"wal-encode-bench", channel=WAN, durable=True,
                              batch_size=16)
        store = attach_replication(dep, ReplicatedStore(seed=b"wal-encode-bench"))
        rng = random.Random("wal-encode-bench")
        for i in range(40):
            txn = f"TXN-W{i:04d}"
            dep.client.upload(dep.provider.name, rng.randbytes(rng.randint(1024, 65536)),
                              transaction_id=txn)
            dep.run()
            if i % 10 == 3:
                store.overwrite_raw("tpnr-data", txn, data=rng.randbytes(2048))
            dep.client.download(txn)
            dep.run()
        dep.settle_batches()
    finally:
        WriteAheadLog.append = append
    return records


def test_bench_wal_encode_durable_round(benchmark, durable_round_records):
    """Encode every record of one durable round, as the log does once
    the journal has swapped its payload fields for blob references."""
    from repro.durability.wal import encode_record

    def encode_all():
        for record in durable_round_records:
            encode_record(record)

    encode_all()
    benchmark(encode_all)
