"""Batched evidence signatures: sealing, proofs, the tamper surface.

The load-bearing property (ISSUE 9 satellite): a **valid batch
signature says nothing about an item whose inclusion proof fails** —
``verify_batch_proof`` must reject such an item even though
``verify_batch_root`` passes.
"""

from dataclasses import replace

import pytest

from repro.crypto.batch import (
    BatchLedger,
    BatchProof,
    EvidenceBatcher,
    SealedBatch,
    sign_batch_root,
    verify_batch_proof,
    verify_batch_root,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.merkle import MerkleTree
from repro.crypto.pki import Identity
from repro.crypto.rsa import RsaPublicKey
from repro.obs.instrument import observe_crypto
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def alice():
    return Identity.generate("alice", HmacDrbg(b"batch-tests"), bits=512)


@pytest.fixture(scope="module")
def mallory():
    return Identity.generate("mallory", HmacDrbg(b"batch-tests-evil"), bits=512)


def leaves(n):
    return [b"evidence-leaf-%d" % i for i in range(n)]


class TestBatcher:
    def test_batch_size_below_one_rejected(self, alice):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                EvidenceBatcher(alice, bad, BatchLedger())

    def test_auto_seal_at_batch_size(self, alice):
        ledger = BatchLedger()
        batcher = EvidenceBatcher(alice, 4, ledger)
        for leaf in leaves(9):
            batcher.add(leaf)
        assert batcher.batches_sealed == 2
        assert ledger.leaves_published == 8
        batcher.seal()
        assert batcher.batches_sealed == 3
        assert ledger.leaves_published == 9

    def test_seal_empty_is_noop(self, alice):
        batcher = EvidenceBatcher(alice, 4, BatchLedger())
        assert batcher.seal() is None
        assert batcher.batches_sealed == 0

    def test_batch_size_one_degenerates_to_per_item(self, alice):
        ledger = BatchLedger()
        batcher = EvidenceBatcher(alice, 1, ledger)
        for leaf in leaves(3):
            batcher.add(leaf)
        assert batcher.batches_sealed == 3
        assert all(b.size == 1 for b in ledger.batches)


class TestLedgerAndProofs:
    def test_every_sealed_leaf_resolvable_and_valid(self, alice):
        ledger = BatchLedger()
        batcher = EvidenceBatcher(alice, 5, ledger)
        for leaf in leaves(12):
            batcher.add(leaf)
        batcher.seal()
        for leaf in leaves(12):
            proof = ledger.proof_for("alice", leaf)
            assert proof is not None
            assert verify_batch_proof(alice.public_key, proof)

    def test_unknown_leaf_has_no_proof(self, alice):
        ledger = BatchLedger()
        EvidenceBatcher(alice, 2, ledger).add(b"x")
        assert ledger.proof_for("alice", b"never-added") is None

    def test_signer_namespaces_are_distinct(self, alice, mallory):
        ledger = BatchLedger()
        batcher = EvidenceBatcher(alice, 1, ledger)
        batcher.add(b"shared-leaf")
        assert ledger.proof_for("mallory", b"shared-leaf") is None


class TestTamperSurface:
    def seal_one(self, identity, n=6):
        ledger = BatchLedger()
        batcher = EvidenceBatcher(identity, n, ledger)
        for leaf in leaves(n):
            batcher.add(leaf)
        return ledger

    def test_valid_root_signature_does_not_bless_a_forged_item(self, alice):
        # The attack this layer exists to stop: keep the legitimately
        # signed batch, swap the item.  Root signature still verifies;
        # the item must not.
        ledger = self.seal_one(alice)
        real = ledger.proof_for("alice", leaves(6)[2])
        forged = BatchProof(
            signer=real.signer,
            leaf=b"tampered-item",
            index=real.index,
            path=real.path,
            batch=real.batch,
        )
        assert verify_batch_root(alice.public_key, forged.batch)
        assert not verify_batch_proof(alice.public_key, forged)

    def test_proof_transplanted_between_batches_rejected(self, alice):
        first = self.seal_one(alice).proof_for("alice", leaves(6)[0])
        other_ledger = BatchLedger()
        other = EvidenceBatcher(alice, 2, other_ledger)
        other.add(b"other-a")
        other.add(b"other-b")
        transplanted = BatchProof(
            signer="alice",
            leaf=first.leaf,
            index=first.index,
            path=first.path,
            batch=other_ledger.batches[0],
        )
        assert not verify_batch_proof(alice.public_key, transplanted)

    def test_wrong_key_rejects_root(self, alice, mallory):
        ledger = self.seal_one(alice)
        proof = ledger.proof_for("alice", leaves(6)[0])
        assert not verify_batch_proof(mallory.public_key, proof)

    def test_unsigned_root_rejected(self, alice):
        ledger = self.seal_one(alice)
        real = ledger.proof_for("alice", leaves(6)[1])
        tree = MerkleTree(leaves(6))
        from repro.crypto.batch import SealedBatch
        fake = SealedBatch(signer="alice", root=tree.root,
                           signature=b"\x00" * 64, size=6)
        doctored = BatchProof(signer="alice", leaf=real.leaf,
                              index=real.index, path=real.path, batch=fake)
        assert not verify_batch_proof(alice.public_key, doctored)


class TestRootVerifiedOnce:
    """``verify_batch_root`` keeps each verdict on the batch, per key:
    the memo saves RSA work and must never change a verdict."""

    def sealed(self, identity, n=6):
        ledger = TestTamperSurface().seal_one(identity, n)
        return ledger, [ledger.proof_for(identity.name, leaf) for leaf in leaves(n)]

    @staticmethod
    def rsa_verifies(crypto):
        counter = crypto.series.get("rsa.verify")
        return 0 if counter is None else int(counter.value)

    def test_failing_root_rejected_for_every_item(self, alice):
        _, proofs = self.sealed(alice)
        bad = SealedBatch(signer="alice", root=proofs[0].batch.root,
                          signature=b"\x00" * 64, size=6)
        with observe_crypto(MetricsRegistry()) as crypto:
            verdicts = [verify_batch_proof(alice.public_key, replace(p, batch=bad))
                        for p in proofs]
        assert verdicts == [False] * 6
        assert self.rsa_verifies(crypto) == 1

    def test_forged_twin_rejected_after_the_genuine_verified(self, alice, mallory):
        _, proofs = self.sealed(alice)
        genuine = proofs[0].batch
        assert all(verify_batch_proof(alice.public_key, p) for p in proofs)
        for signature in (sign_batch_root(mallory.private_key, genuine.root),
                          bytes([genuine.signature[0] ^ 1]) + genuine.signature[1:]):
            twin = replace(genuine, signature=signature)
            assert not any(verify_batch_proof(alice.public_key, replace(p, batch=twin))
                           for p in proofs)
            assert verify_batch_root(alice.public_key, genuine)

    def test_one_keys_verdict_never_serves_another(self, alice, mallory):
        _, first = self.sealed(alice)
        assert verify_batch_proof(alice.public_key, first[0])
        assert not verify_batch_proof(mallory.public_key, first[1])
        _, second = self.sealed(alice)
        assert not verify_batch_proof(mallory.public_key, second[0])
        assert verify_batch_proof(alice.public_key, second[1])
        # Same modulus, other exponent: another key.
        other = RsaPublicKey(alice.public_key.n, 3)
        assert not verify_batch_root(other, second[0].batch)
        assert verify_batch_root(alice.public_key, second[0].batch)

    def test_failing_path_rejected_under_a_memoised_root(self, alice):
        _, proofs = self.sealed(alice)
        assert verify_batch_proof(alice.public_key, proofs[2])
        assert verify_batch_root(alice.public_key, proofs[2].batch)
        (side, sibling), *rest = proofs[2].path
        doctored = ((side, bytes(b ^ 0xFF for b in sibling)), *rest)
        assert not verify_batch_proof(alice.public_key, replace(proofs[2], leaf=b"forged"))
        assert not verify_batch_proof(alice.public_key, replace(proofs[2], path=doctored))
        assert not verify_batch_proof(alice.public_key, replace(proofs[2], index=3,
                                                                path=proofs[3].path))

    def test_durable_round_verifies_each_root_once_per_key(self, monkeypatch):
        from repro.core.protocol import make_deployment
        from repro.crypto import batch
        from repro.replication.store import ReplicatedStore, attach_replication

        verify_root = batch.verify_batch_root
        calls = {}

        def counted(public_key, sealed):
            before = self.rsa_verifies(crypto)
            verdict = verify_root(public_key, sealed)
            key = (id(sealed), public_key)
            made, seen = calls.get(key, (0, 0))
            calls[key] = (made + self.rsa_verifies(crypto) - before, seen + 1)
            return verdict

        monkeypatch.setattr(batch, "verify_batch_root", counted)
        with observe_crypto(MetricsRegistry()) as crypto:
            dep = make_deployment(seed=b"root-once", durable=True, batch_size=4)
            attach_replication(dep, ReplicatedStore(seed=b"root-once"))
            for i in range(6):
                txn = f"ONCE-{i}"
                dep.client.upload(dep.provider.name, b"payload %d " % i * 40,
                                  transaction_id=txn)
                dep.run()
                dep.client.download(txn)
                dep.run()
            dep.settle_batches()
        assert all(made == 1 for made, _ in calls.values())
        assert sum(seen for _, seen in calls.values()) > len(calls) > 0
