"""Batched evidence signatures: one RSA signature per Merkle batch.

The TPNR evidence construction signs twice per message (data hash +
header) and that modular exponentiation dominates the engine's hot
path.  Following the Proofs-of-Retrievability aggregation line, this
module amortizes it: a signer accumulates per-message evidence *leaf
digests* into an :class:`~repro.crypto.merkle.MerkleTree` and issues
**one** signature over the batch root; every item is then provable by
its inclusion proof against that signed root — equivalent NRO/NRR
strength at ``1/K`` of the signing cost.

This layer is deliberately core-agnostic: it deals in raw leaf bytes
and signer names.  What a leaf *means* (the canonical digest of a TPNR
header) is defined by :func:`repro.core.evidence.evidence_leaf`.

* :class:`EvidenceBatcher` — per-signer accumulator; seals a batch
  whenever ``batch_size`` leaves are pending (and on explicit
  :meth:`~EvidenceBatcher.seal`, the end-of-run flush).
* :class:`SealedBatch` — a published root + its one RSA signature,
  verified once per verifying key: every item of the batch shares the
  verdict (:func:`verify_batch_root`).
* :class:`BatchProof` — one item's membership: leaf, index, inclusion
  path, and the sealed batch it lives in.
* :class:`BatchLedger` — the shared publication surface (modelling the
  provider-visible batch-commitment log): sealed batches land here and
  any holder of a leaf can look its proof up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import instrument as _instrument
from . import rsa
from .merkle import MerkleTree, verify_inclusion
from .pki import Identity

__all__ = [
    "BATCH_ROOT_DOMAIN",
    "SealedBatch",
    "BatchProof",
    "BatchLedger",
    "EvidenceBatcher",
    "sign_batch_root",
    "verify_batch_root",
    "verify_batch_proof",
]

#: Domain prefix for the root signature, so a batch-root signature can
#: never be confused with any other signature this repo produces.
BATCH_ROOT_DOMAIN = b"tpnr-batch-root/v1|"


@dataclass(frozen=True)
class SealedBatch:
    """A published Merkle root with its single RSA signature."""

    signer: str
    root: bytes
    signature: bytes
    size: int

    @cached_property
    def _verdicts(self) -> dict[rsa.RsaPublicKey, bool]:
        """Public key -> whether it validates this batch's signature,
        filled by :func:`verify_batch_root`.  Cached outside the
        dataclass fields, so equality and repr never see it."""
        return {}


@dataclass(frozen=True)
class BatchProof:
    """One leaf's membership in a sealed batch."""

    signer: str
    leaf: bytes
    index: int
    path: tuple[tuple[str, bytes], ...]
    batch: SealedBatch


def sign_batch_root(private_key: rsa.RsaPrivateKey, root: bytes) -> bytes:
    """The batch's one signature: over the domain-separated root."""
    return rsa.sign(private_key, BATCH_ROOT_DOMAIN + root)


def verify_batch_root(public_key: rsa.RsaPublicKey, batch: SealedBatch) -> bool:
    """Does the claimed signer's key validate the batch root signature?

    The verdict, True or False, is a pure function of the key and the
    batch's own root and signature, so it is computed once per key and
    kept on the batch: the K items of a batch cost one ``rsa.verify``
    per verifying key, not K.  Another :class:`SealedBatch` object —
    say the same root under a forged signature — keeps its own verdicts.
    """
    verdicts = batch._verdicts
    verdict = verdicts.get(public_key)
    if verdict is None:
        verdict = verdicts[public_key] = rsa.verify(
            public_key, BATCH_ROOT_DOMAIN + batch.root, batch.signature
        )
    return verdict


def verify_batch_proof(public_key: rsa.RsaPublicKey, proof: BatchProof) -> bool:
    """Full item check: inclusion proof against the root, then the one
    root signature.  Note the order matters for the attack surface: a
    valid batch signature says nothing about an item whose inclusion
    proof fails — such an item must be rejected, so every item's path
    is checked, even when its root's verdict is already known."""
    if not verify_inclusion(proof.batch.root, proof.leaf, proof.path):
        return False
    return verify_batch_root(public_key, proof.batch)


class BatchLedger:
    """Shared registry of sealed batches, indexed for proof lookup.

    One ledger serves one world (deployment or pool shard); every party
    publishes its sealed batches here and every recipient resolves the
    proofs for the batched evidence it holds.  Proofs are materialized
    at publication — ``O(K log K)`` hashing per batch — so lookups are
    dictionary reads on the verification path.
    """

    def __init__(self) -> None:
        self.batches: list[SealedBatch] = []
        self._proofs: dict[tuple[str, bytes], BatchProof] = {}

    def publish(self, tree: MerkleTree, batch: SealedBatch) -> None:
        self.batches.append(batch)
        for index in range(len(tree)):
            leaf = tree.leaf(index)
            proof = BatchProof(
                signer=batch.signer,
                leaf=leaf,
                index=index,
                path=tree.prove(index),
                batch=batch,
            )
            # Last write wins on a duplicate leaf: any sealed batch
            # containing the leaf yields a valid proof.
            self._proofs[(batch.signer, leaf)] = proof

    def proof_for(self, signer: str, leaf: bytes) -> BatchProof | None:
        return self._proofs.get((signer, leaf))

    @property
    def leaves_published(self) -> int:
        return sum(batch.size for batch in self.batches)


class EvidenceBatcher:
    """Per-signer evidence accumulator with automatic sealing."""

    def __init__(self, identity: Identity, batch_size: int, ledger: BatchLedger) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.identity = identity
        self.batch_size = batch_size
        self.ledger = ledger
        self._pending: list[bytes] = []
        self.leaves_added = 0
        self.batches_sealed = 0

    def add(self, leaf: bytes) -> None:
        """Queue one leaf digest; seals automatically at ``batch_size``."""
        self._pending.append(bytes(leaf))
        self.leaves_added += 1
        if len(self._pending) >= self.batch_size:
            self.seal()

    def seal(self) -> SealedBatch | None:
        """Seal whatever is pending (the end-of-run flush); None if empty.

        The crypto observer counts one ``batch.seal`` per seal; the
        inner ``merkle.build`` and ``rsa.sign`` calls count individually.
        """
        if not self._pending:
            return None
        observer = _instrument.observer
        if observer is not None:
            observer.crypto_call("batch.seal")
        tree = MerkleTree(self._pending)
        batch = SealedBatch(
            signer=self.identity.name,
            root=tree.root,
            signature=sign_batch_root(self.identity.private_key, tree.root),
            size=len(tree),
        )
        self.ledger.publish(tree, batch)
        self._pending = []
        self.batches_sealed += 1
        return batch
