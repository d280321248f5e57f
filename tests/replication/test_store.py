"""The replicated store: quorum writes, verified reads, degradation."""

import hashlib

import pytest

from repro.errors import NoSuchObjectError
from repro.replication import ReplicatedStore, ReplicationError


@pytest.fixture
def store():
    return ReplicatedStore(seed=b"test-replicated")


class TestFanOut:
    def test_roundtrip(self, store):
        obj = store.put("c", "k", b"payload", at_time=1.0)
        assert obj.version == 1
        got = store.get("c", "k")
        assert got.data == b"payload"
        assert got.version == 1

    def test_write_lands_on_every_replica(self, store):
        store.put("c", "k", b"payload")
        for name in store.replica_names:
            adapter = store.handle(name).adapter
            assert adapter.get("c", "k") == b"payload"

    def test_three_platform_replicas_by_default(self, store):
        assert store.replica_names == ("s3like", "azurelike", "gaelike")
        assert store.quorum == 2

    def test_versions_advance(self, store):
        store.put("c", "k", b"one")
        obj = store.put("c", "k", b"two")
        assert obj.version == 2
        assert store.get("c", "k").data == b"two"

    def test_missing_object(self, store):
        with pytest.raises(NoSuchObjectError):
            store.get("c", "nope")

    def test_parity_surface(self, store):
        store.put("c", "k", b"payload", at_time=2.0)
        obj = store.get("c", "k")
        assert (obj.data, obj.size, obj.version) == (b"payload", len(b"payload"), 1)
        latest = store.verifier.latest("c", "k")
        assert latest.digest == hashlib.sha256(b"payload").hexdigest()
        assert store.verifier.live_keys() == [("c", "k")]


class TestDeterminism:
    def test_read_order_is_stable_per_key(self):
        a = ReplicatedStore(seed=b"order-seed")
        b = ReplicatedStore(seed=b"order-seed")
        for key in ("k1", "k2", "k3"):
            assert a.read_order("c", key) == b.read_order("c", key)

    def test_read_order_spreads_across_keys(self, store):
        orders = {tuple(store.read_order("c", f"k{i}")) for i in range(16)}
        assert len(orders) > 1  # HMAC ranking, not a fixed preference

    def test_same_seed_same_events(self):
        def drive(s):
            s.put("c", "k", b"one", at_time=0.0)
            s.put("c", "k", b"two", at_time=1.0)
            s.get("c", "k")
            return [(e.replica, e.action, e.version) for e in s.events]

        assert drive(ReplicatedStore(seed=b"det")) == \
            drive(ReplicatedStore(seed=b"det"))


class TestDegradation:
    def test_write_succeeds_with_one_replica_down(self, store):
        store.fault_replica("gaelike", "partitioned")
        store.put("c", "k", b"payload")
        assert store.get("c", "k").data == b"payload"

    def test_quorum_loss_rejects_before_writing(self, store):
        store.fault_replica("s3like", "partitioned")
        store.fault_replica("azurelike", "partitioned")
        with pytest.raises(ReplicationError):
            store.put("c", "k", b"payload")
        assert store.rejected_writes == 1
        # The lone reachable replica was never dirtied.
        assert store.handle("gaelike").adapter.blobs.object_marks() == {}

    def test_heal_restores_write_path(self, store):
        store.fault_replica("s3like", "partitioned")
        store.fault_replica("azurelike", "partitioned")
        with pytest.raises(ReplicationError):
            store.put("c", "k", b"payload")
        store.heal_replica("s3like")
        store.heal_replica("azurelike")
        store.put("c", "k", b"payload")
        assert store.get("c", "k").data == b"payload"

    def test_tampered_replica_is_hedged_past_and_repaired(self, store):
        store.put("c", "k", b"true bytes")
        first = store.read_order("c", "k")[0]
        store.tamper_replica(first, "c", "k", b"evil bytes")
        got = store.get("c", "k")
        assert got.data == b"true bytes"
        assert store.hedged_reads == 1
        assert store.read_repairs == 1
        assert store.handle(first).adapter.get("c", "k") == b"true bytes"
        categories = [f.category for f in store.verifier.error_findings()]
        assert categories == ["replica-divergence"]

    def test_lagging_replica_skips_writes_then_lags(self, store):
        store.put("c", "k", b"one")
        store.fault_replica("s3like", "lagging")
        store.put("c", "k", b"two")
        assert store.handle("s3like").adapter.get("c", "k") == b"one"
        store.heal_replica("s3like")
        store.audit()
        lag = [f for f in store.verifier.findings
               if f.category in ("replica-lag", "replica-stale-read")
               and f.replica == "s3like"]
        assert lag  # behind, but classified — never silent
        assert store.get("c", "k").data == b"two"


class TestByzantine:
    def test_forged_attestation_detected(self, store):
        store.put("c", "k", b"true bytes")
        first = store.read_order("c", "k")[0]
        store.tamper_replica(first, "c", "k", b"evil", forge_attestation=True)
        assert store.get("c", "k").data == b"true bytes"
        categories = {f.category for f in store.verifier.error_findings()}
        assert "replica-bad-attestation" in categories

    def test_minority_write_is_a_fork(self, store):
        store.put("c", "k", b"quorum bytes")
        store.fault_replica("gaelike", "partitioned")
        store.minority_write("gaelike", "c", "k", b"split-brain bytes")
        store.heal_replica("gaelike")
        store.audit()
        categories = {f.category for f in store.verifier.error_findings()}
        assert "replica-fork" in categories

    def test_coordinator_cover_up_blinds_replica_checks(self, store):
        # overwrite_raw is the provider rewriting data AND its own
        # trusted log: the audit stays green and the tampered bytes are
        # served — only client-held TPNR evidence catches this.
        store.put("c", "k", b"true bytes")
        store.overwrite_raw("c", "k", data=b"covered-up")
        assert store.audit() == []
        assert store.get("c", "k").data == b"covered-up"
        assert store.verifier.error_findings() == []


class TestMembership:
    def test_remove_below_quorum_refused(self, store):
        store.remove_replica("gaelike")
        with pytest.raises(ReplicationError):
            store.remove_replica("azurelike")

    def test_unknown_replica(self, store):
        with pytest.raises(ReplicationError):
            store.handle("nope")

    def test_stats_shape(self, store):
        store.put("c", "k", b"payload")
        store.get("c", "k")
        assert len(store.replica_names) == 3
        assert store.put_count == 1 and store.get_count == 1
        assert store.verifier.live_keys() == [("c", "k")]
        assert store.verifier.findings == []
