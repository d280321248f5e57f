"""Delta snapshots: each snapshot after a party's first carries only
what changed since the journal's previous one, and the chain rebuilds
to exactly the state a full snapshot would record."""

import random

from repro.core.protocol import (
    make_deployment,
    run_abort,
    run_download,
    run_session,
    run_shared_download,
    run_upload,
)
from repro.core.transaction import TxStatus
from repro.durability.checkpoint import PartyState, capture_state, rebuild
from repro.durability.wal import decode_record, encode_record
from repro.durability.recovery import recover
from repro.net.faults import FaultAction, FaultInjector, FaultPlan, FaultRule
from repro.replication.store import ReplicatedStore, attach_replication

CONTAINER = "tpnr-data"


def withhold(dep, kind):
    """From now on the network loses every message of *kind*."""
    injector = FaultInjector(FaultPlan(
        name=f"withhold-{kind}",
        rules=(FaultRule(action=FaultAction.DROP, kind=kind, count=99),),
    ))
    dep.network.install_adversary(injector)
    injector.reset(epoch=dep.sim.now)


def txn(status: str) -> dict:
    return {"transaction_id": "T", "status": status}


class TestDeltaCodec:
    def test_delta_carries_only_changes_and_removals(self):
        base = PartyState("provider")
        base.transactions = {"T0": txn("completed"), "T1": txn("pending"),
                             "T2": txn("pending")}
        base.peers = {"alice": {"send": 1, "recv": 0, "nonces": {b"a", b"b"}},
                      "carol": {"send": 0, "recv": 3, "nonces": {b"c"}},
                      "ttp": {"send": 2, "recv": 1, "nonces": {b"t"}}}
        base.role_state = {
            "blobs": {"T0": {"data": b"zero"}, "T1": {"data": b"one"}},
            "grants": {"T0": ["carol"]},
            "acked": [["T0", "alice"], ["T1", "alice"]],
        }
        now = PartyState("provider")
        now.transactions = {"T0": txn("completed"), "T1": txn("completed"),
                            "T3": txn("pending")}
        now.peers = {"alice": {"send": 2, "recv": 0, "nonces": {b"b", b"d"}},
                     "ttp": {"send": 2, "recv": 1, "nonces": {b"t"}}}
        now.role_state = {
            "blobs": {"T0": {"data": b"zero"}, "T3": {"data": b"three"}},
            "grants": {"T0": ["carol", "dave"]},
            "acked": [["T1", "alice"], ["T3", "alice"]],
        }
        delta = decode_record(encode_record(now.to_dict(base)))
        assert delta["transactions"] == {"T1": txn("completed"), "T2": None,
                                         "T3": txn("pending")}
        assert delta["peers"] == {
            "alice": {"send": 2, "recv": 0, "nonces": [b"d"], "dropped": [b"a"]},
            "carol": None,
        }
        assert delta["role_state"] == {
            "blobs": {"T1": None, "T3": {"data": b"three"}},
            "grants": {"T0": ["carol", "dave"]},
            "acked": [["T3", "alice"]],
            "unacked": [["T0", "alice"]],
        }
        restored = PartyState.from_dict(decode_record(encode_record(base.to_dict())))
        restored.apply_snapshot(delta)
        assert restored.to_dict() == now.to_dict()


def same_state(a, b) -> bool:
    return a.to_dict() == b.to_dict() and a.evidence_keys() == b.evidence_keys()


def check_every_snapshot(dep, monkeypatch):
    """After each snapshot any party writes, compare a full capture of
    the live party with the rebuilt durable prefix, and with its
    snapshot chain alone (records left out, so every delta must be
    complete by itself).  Returns the list the comparisons are appended
    to: ``(party, delta, equal)``."""
    checks = []
    for party in dep.parties():
        journal = party.journal
        write = journal.write_snapshot

        def checked(party=party, journal=journal, write=write):
            write()
            rebuilt, scan, _ = journal.durable_state()
            chain, _ = rebuild(
                [r for r in scan.records if r["type"] == "snapshot"], journal.role
            )
            full = capture_state(party, journal.role)
            equal = same_state(rebuilt, full) and same_state(chain, full)
            checks.append((party.name, bool(scan.records[-1].get("delta")), equal))

        monkeypatch.setattr(journal, "write_snapshot", checked)
    return checks


class TestDeltaChainRebuildsFullState:
    def test_rebuild_equals_full_capture_at_every_snapshot(self, monkeypatch):
        dep = make_deployment(seed=b"delta-differential", durable=True,
                              snapshot_interval=4, extra_client_names=("carol",))
        store = attach_replication(dep, ReplicatedStore(seed=b"delta-replicas"))
        checks = check_every_snapshot(dep, monkeypatch)
        rng = random.Random("delta-differential")
        sessions = [run_session(dep, rng.randbytes(300)) for _ in range(3)]
        assert all(s.download.verified for s in sessions)
        # An abort, a TTP resolve and a cross-user grant.
        withhold(dep, "tpnr.upload.receipt")
        assert run_abort(dep, b"abort me " * 20).upload_status is TxStatus.ABORTED
        resolved = run_upload(dep, b"resolve me " * 20)
        assert resolved.upload_status is TxStatus.RESOLVED
        dep.network.remove_adversary()
        assert run_shared_download(dep, sessions[0].transaction_id, "carol").verified
        # A coordinator tamper (the trusted log is rewritten too) and a
        # single-replica tamper (the hedged read masks it).
        coordinator = sessions[1].transaction_id
        store.overwrite_raw(CONTAINER, coordinator, data=b"forged bytes")
        assert run_download(dep, coordinator).tampering_detected
        replica = sessions[2].transaction_id
        first = store.read_order(CONTAINER, replica)[0]
        store.tamper_replica(first, CONTAINER, replica, b"rotten replica")
        assert run_download(dep, replica).verified
        # A mid-run crash of both sides, then more traffic.
        for party in (dep.client, dep.provider):
            party.begin_crash(amnesia=True)
            recover(party)
        after = [run_session(dep, rng.randbytes(500)) for _ in range(3)]
        assert all(s.download.verified for s in after)
        assert run_download(dep, coordinator).tampering_detected

        assert [c for c in checks if not c[2]] == []
        names = {name for name, _, _ in checks}
        assert {dep.client.name, dep.provider.name, dep.ttp.name} <= names
        deltas = sum(1 for _, delta, _ in checks if delta)
        assert deltas > len(checks) // 2
        # The client and the provider each start a new chain after
        # their crash: a second full snapshot.
        for party in (dep.client, dep.provider):
            fulls = [delta for name, delta, _ in checks if name == party.name]
            assert fulls.count(False) == 2


def wal_bytes(dep) -> int:
    return sum(len(dep.stable.volatile_view(f))
               for f in dep.stable.filenames() if f.endswith(".wal"))


class TestWalGrowsLinearly:
    def wal_bytes_per_session(self, sessions: int) -> float:
        dep = make_deployment(seed=b"delta-linear", durable=True, batch_size=16)
        rng = random.Random("delta-linear")
        for _ in range(sessions):
            assert run_session(dep, rng.randbytes(1024)).download.verified
        return wal_bytes(dep) / sessions

    def test_wal_bytes_per_session_flat_from_100_to_400(self):
        small = self.wal_bytes_per_session(100)
        large = self.wal_bytes_per_session(400)
        assert large <= 1.1 * small


class TestSnapshotReadsOnlyChangedObjects:
    def test_unchanged_store_is_not_read(self):
        dep = make_deployment(seed=b"delta-no-reads", durable=True)
        store = attach_replication(dep, ReplicatedStore(seed=b"delta-no-reads"))
        stored = [run_session(dep, bytes([n]) * 256).transaction_id for n in range(4)]
        journal = dep.provider.journal
        journal.write_snapshot()
        reads = store.get_count
        journal.write_snapshot()
        assert store.get_count == reads
        # A tamper rewrites the trusted log: the next snapshot reads
        # that object, and only that one, and records the forged bytes.
        store.overwrite_raw(CONTAINER, stored[0], data=b"forged")
        reads = store.get_count
        journal.write_snapshot()
        assert store.get_count == reads + 1
        blobs = list(journal.wal.records())[-1]["state"]["role_state"]["blobs"]
        assert list(blobs) == [stored[0]]
