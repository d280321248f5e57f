"""RP2: live migration with the evidence chain surviving the move."""

import dataclasses

import pytest

from repro.core.arbitrator import Verdict
from repro.core.archive import export_store
from repro.core.protocol import (
    dispute_tampering,
    make_deployment,
    run_download,
    run_upload,
)
from repro.crypto.drbg import HmacDrbg
from repro.replication import (
    AzureReplicaAdapter,
    GaeReplicaAdapter,
    ReplicatedStore,
    ReplicationError,
    S3ReplicaAdapter,
    attach_replication,
    migrate_backend,
    verify_migration_chain,
)

SEED = b"test-migration"


def two_replica_store(seed=SEED):
    rng = HmacDrbg(seed, personalization=b"migration-backends")
    return ReplicatedStore(
        seed=seed + b"/store",
        replicas=(S3ReplicaAdapter(rng.fork("s3like")),
                  GaeReplicaAdapter(rng.fork("gaelike"))),
        quorum=2,
    ), rng


class TestMigrateBackend:
    def test_objects_survive_the_move(self):
        store, rng = two_replica_store()
        payloads = {f"k{i}": rng.fork(f"p{i}").generate(40) for i in range(3)}
        for key, data in payloads.items():
            store.put("c", key, data)
        record = migrate_backend(
            store, "s3like", AzureReplicaAdapter(rng.fork("azurelike")))
        assert record.object_count == 3
        assert record.source == "s3like"
        assert record.destination == "azurelike"
        assert store.replica_names == ("gaelike", "azurelike")
        for key, data in payloads.items():
            assert store.get("c", key).data == data
        assert store.audit() == []

    def test_chain_digest_verifies_and_binds_objects(self):
        store, rng = two_replica_store()
        store.put("c", "k", b"payload")
        record = migrate_backend(
            store, "s3like", AzureReplicaAdapter(rng.fork("azurelike")))
        assert verify_migration_chain(record)
        forged = dataclasses.replace(
            record, objects=(("c", "k", 1, "0" * 64),))
        assert not verify_migration_chain(forged)

    def test_unknown_source_refused(self):
        store, rng = two_replica_store()
        with pytest.raises(ReplicationError):
            migrate_backend(store, "nope",
                            AzureReplicaAdapter(rng.fork("azurelike")))

    def test_foreign_evidence_bundle_aborts(self):
        # A bundle that does not verify against the destination's key
        # registry must abort the migration, not travel unverified.
        store, rng = two_replica_store()
        store.put("c", "k", b"payload")
        dep = make_deployment(seed=SEED)
        outcome = run_upload(dep, b"evidence payload")
        blob = export_store(dep.client.evidence_store, outcome.transaction_id)
        stranger = make_deployment(seed=SEED + b"/stranger")
        with pytest.raises(ReplicationError):
            migrate_backend(store, "s3like",
                            AzureReplicaAdapter(rng.fork("azurelike")),
                            evidence_blob=blob, registry=stranger.registry)


class TestEvidenceContinuity:
    def _deploy(self, tag: bytes):
        dep = make_deployment(seed=SEED + tag, observe=True)
        store, rng = two_replica_store(SEED + tag)
        attach_replication(dep, store)
        outcome = run_upload(dep, b"tpnr payload " * 10)
        txn = outcome.transaction_id
        blob = export_store(dep.client.evidence_store, txn)
        record = migrate_backend(
            store, "s3like", AzureReplicaAdapter(rng.fork("azurelike")),
            evidence_blob=blob, registry=dep.registry, at_time=dep.sim.now)
        return dep, store, txn, record

    def test_clean_migration_beats_a_false_claim(self):
        dep, store, txn, record = self._deploy(b"/clean")
        assert record.evidence_verified > 0
        assert run_download(dep, txn).verified
        assert dispute_tampering(dep, txn).verdict is Verdict.CLAIM_REJECTED
        dossier = dep.dossier(txn)
        assert dossier.agrees(dep.arbitrator)

    def test_post_migration_cover_up_still_convicted(self):
        dep, store, txn, record = self._deploy(b"/tamper")
        store.overwrite_raw("tpnr-data", txn, data=b"rewritten everywhere")
        result = run_download(dep, txn)
        assert result.tampering_detected
        assert dispute_tampering(dep, txn).verdict is Verdict.PROVIDER_FAULT
        assert dep.dossier(txn).agrees(dep.arbitrator)


def test_experiment_migration_contract():
    from repro.analysis.experiments import experiment_migration

    result = experiment_migration()
    assert result.facts["evidence_chain_survives_migration"]
    assert result.facts["clean/replicas_after"] == ["gaelike", "azurelike"]
    assert result.facts["tampered/verdict"] == "provider-at-fault"
