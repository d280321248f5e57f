"""Cryptographic substrate.

Everything the paper's protocols need: hashing (MD5, SHA-256), HMAC,
ChaCha20 + AEAD, RSA signatures/encryption, Diffie-Hellman, hybrid
encryption (RSA-KEM), Shamir secret sharing ("SKS" in the paper), a
deterministic DRBG, a miniature PKI, and a Merkle accumulator for
batched evidence signatures (one RSA signature per batch, per-item
inclusion proofs).

Hashing is ``hashlib``, checked against the RFC 1321 and FIPS 180-2
vectors; HMAC is RFC 2104 over it.  The rest is written here and
checked against published test vectors or an independent oracle in the
test suite.
"""

from . import aead, batch, cache, chacha20, chacha20_np, dh, drbg, hashes, hmac_, kem, merkle, numbers, pki, primes, rsa, shamir
from .batch import BatchLedger, BatchProof, EvidenceBatcher, SealedBatch, verify_batch_proof
from .cache import CryptoCaches, LruCache, crypto_caches
from .drbg import HmacDrbg
from .hashes import digest
from .hmac_ import constant_time_equals, hmac_digest
from .kem import hybrid_decrypt, hybrid_encrypt
from .merkle import MerkleTree, verify_inclusion
from .pki import Certificate, CertificateAuthority, Identity, KeyRegistry
from .rsa import RsaPrivateKey, RsaPublicKey, generate_keypair, sign, verify
from .shamir import Share, recover_digest, recover_secret, split_digest, split_secret

__all__ = [
    "aead",
    "batch",
    "BatchLedger",
    "BatchProof",
    "EvidenceBatcher",
    "SealedBatch",
    "verify_batch_proof",
    "cache",
    "CryptoCaches",
    "LruCache",
    "crypto_caches",
    "chacha20",
    "chacha20_np",
    "dh",
    "drbg",
    "hashes",
    "hmac_",
    "kem",
    "merkle",
    "MerkleTree",
    "verify_inclusion",
    "numbers",
    "pki",
    "primes",
    "rsa",
    "shamir",
    "HmacDrbg",
    "digest",
    "constant_time_equals",
    "hmac_digest",
    "hybrid_decrypt",
    "hybrid_encrypt",
    "Certificate",
    "CertificateAuthority",
    "Identity",
    "KeyRegistry",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "sign",
    "verify",
    "Share",
    "recover_digest",
    "recover_secret",
    "split_digest",
    "split_secret",
]
