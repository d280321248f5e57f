"""Crash-recovery edge cases: the satellite-4 matrix.

Each test stages one nasty corner — crash between WAL append and
delivery, crash mid-snapshot, double crash during recovery, a damaged
WAL tail, a lying disk — and checks recovery lands the session in a
consistent terminal state without exceptions.
"""

import hashlib

import pytest

from repro.core.arbitrator import Verdict
from repro.core.evidence import BatchedEvidence, verify_opened_evidence
from repro.core.messages import Flag
from repro.core.protocol import (
    dispute_tampering,
    make_deployment,
    run_download,
    run_session,
    run_upload,
)
from repro.core.transaction import TxStatus
from repro.crypto.drbg import HmacDrbg
from repro.durability.checkpoint import capture_state
from repro.durability.journal import PartyJournal
from repro.durability.recovery import recover
from repro.durability.wal import CrashFaultPolicy, StableStore
from repro.net.faults import FaultAction, FaultInjector, FaultPlan, FaultRule


def drop_first(kind, count=1):
    return FaultPlan(
        name=f"drop-first-{kind}",
        rules=(FaultRule(action=FaultAction.DROP, kind=kind, count=count),),
    )


def arm(dep, plan):
    injector = FaultInjector(plan)
    dep.network.install_adversary(injector)
    injector.reset(epoch=dep.sim.now)
    return injector


class TestCrashBeforeSendEffects:
    def test_crash_after_wal_append_before_delivery(self):
        """The NRO is journaled, then lost on the wire, then the client
        dies before any timer fires.  The WAL alone must be enough to
        finish the upload after restart."""
        dep = make_deployment(seed=b"rec-before-send", durable=True)
        arm(dep, drop_first("tpnr.upload"))
        txn = dep.client.upload(dep.provider.name, b"never delivered yet")
        dep.client.begin_crash(amnesia=True)
        assert dep.client.transactions == {}
        report = recover(dep.client)
        assert report.resumed == 1
        assert f"upload re-sent: {txn}" in report.actions
        dep.run()
        assert dep.client.transactions[txn].status is TxStatus.COMPLETED
        assert dep.provider.store.get("tpnr-data", txn).data == b"never delivered yet"

    def test_recovered_pending_upload_never_hangs(self):
        """A recovered PENDING transaction always has a timer armed:
        even if every message keeps vanishing, the session escalates
        instead of sitting silent forever."""
        dep = make_deployment(seed=b"rec-no-hang", durable=True)
        arm(dep, drop_first("tpnr.upload", count=999))  # drop everything
        txn = dep.client.upload(dep.provider.name, b"doomed", auto_resolve=False)
        dep.client.begin_crash(amnesia=True)
        recover(dep.client)
        dep.run()
        assert dep.sim.pending() == 0
        assert dep.client.transactions[txn].status in (
            TxStatus.FAILED,
            TxStatus.ABORTED,
        )


class TestCrashMidSnapshot:
    def test_unsynced_snapshot_lost_cleanly(self):
        """The process dies while a snapshot sits in the write buffer:
        recovery replays the plain records as if the snapshot had never
        been attempted."""
        dep = make_deployment(seed=b"rec-mid-snap", durable=True)
        outcome = run_session(dep, b"snapshot me")
        assert outcome.upload_status is TxStatus.COMPLETED
        journal = dep.client.journal
        evidence_before = dep.client.evidence_store.seen_keys()
        state = capture_state(dep.client, "client")
        journal.wal.append({"type": "snapshot", "state": state.to_dict()})
        dep.client.begin_crash(amnesia=True)
        report = recover(dep.client)
        assert report.snapshots_seen == 0  # the half-written one is gone
        assert dep.client.evidence_store.seen_keys() == evidence_before
        assert dep.client.transactions[outcome.transaction_id].status is TxStatus.COMPLETED

    def test_synced_snapshot_bounds_replay(self):
        """Control case: a snapshot that did reach the platter is the
        replay starting point."""
        dep = make_deployment(seed=b"rec-snap-ok", durable=True)
        run_session(dep, b"snapshot me")
        dep.client.journal.write_snapshot()
        dep.client.begin_crash(amnesia=True)
        report = recover(dep.client)
        assert report.snapshots_seen == 1


class TestDoubleCrash:
    def test_crash_again_during_recovery(self):
        """The process dies, recovers, and dies again before its first
        recovered send is delivered.  The second recovery must replay
        the same durable prefix (plus whatever the first recovery
        logged) and still finish the session."""
        dep = make_deployment(seed=b"rec-double", durable=True)
        arm(dep, drop_first("tpnr.upload", count=2))  # first try + first recovery
        txn = dep.client.upload(dep.provider.name, b"twice unlucky")
        dep.client.begin_crash(amnesia=True)
        recover(dep.client)  # re-sends; dropped again by the rule
        dep.client.begin_crash(amnesia=True)
        report = recover(dep.client)
        assert f"upload re-sent: {txn}" in report.actions
        dep.run()
        assert dep.client.transactions[txn].status is TxStatus.COMPLETED
        # The provider saw retried NROs; its receipts must all agree.
        hashes = {
            e.header.data_hash
            for e in dep.provider.evidence_store.for_transaction(txn)
        }
        assert len(hashes) == 1

    def test_double_crash_counts_recoveries(self):
        dep = make_deployment(seed=b"rec-count", durable=True)
        run_upload(dep, b"x")
        for _ in range(2):
            dep.client.begin_crash(amnesia=True)
            recover(dep.client)
        assert dep.client.recoveries == 2
        assert dep.client.journal.crashes == 2


class TestDamagedWalTail:
    def test_corrupted_tail_record_truncates_not_raises(self):
        """A flipped byte in the durable tail costs the damaged record,
        never an exception and never the records before it."""
        dep = make_deployment(seed=b"rec-corrupt", durable=True)
        run_session(dep, b"tail corruption")
        journal = dep.client.journal
        logged = journal.records_logged
        journal.crash_policy = CrashFaultPolicy(corrupt_tail_prob=1.0)
        journal.fault_rng = HmacDrbg(b"flip")
        dep.client.begin_crash(amnesia=True)
        report = recover(dep.client)  # must not raise
        assert report.tail_truncated
        assert report.records_replayed < logged

    def test_records_after_a_torn_tail_survive_the_next_crash(self):
        """A crash leaves a torn frame at the WAL's end; the recovered
        process logs on, then crashes again.  Its new record must be
        readable: recovery cuts the torn tail before appending."""
        store = StableStore()
        journal = PartyJournal(
            store, "torn.wal", "client",
            crash_policy=CrashFaultPolicy(keep_pending_prob=1.0, torn_write_prob=1.0),
            fault_rng=HmacDrbg(b"torn"),
        )
        journal.log("note", n=1)
        journal.wal.append({"type": "note", "n": 2})
        journal.crash()  # this seed keeps a non-empty prefix of record 2
        journal.log("note", n=3)
        journal.crash()
        assert [r["n"] for r in journal.durable_scan().records] == [1, 3]

    def test_lying_disk_detected_by_acked_set(self):
        """A disk that drops *fsynced* bytes breaks the acknowledged-
        durability contract; the incremental ``acked_evidence`` set is
        exactly what exposes it against the post-crash scan."""
        dep = make_deployment(seed=b"rec-liar", durable=True)
        run_session(dep, b"source of real evidence")
        evidence = next(dep.client.evidence_store.all_entries())
        store = StableStore()
        journal = PartyJournal(store, "liar.wal", "client")
        journal.log("padding", n=0)
        journal.log_evidence(evidence)
        assert journal.acked_evidence == journal.durable_state()[0]._evidence_keys
        store.crash(
            CrashFaultPolicy(lose_durable_tail_prob=1.0),
            rng=HmacDrbg(b"chop"),
        )
        lost = journal.acked_evidence - journal.durable_state()[0]._evidence_keys
        assert lost  # acknowledged, then silently un-persisted: caught


#: The storage faults a damaged payload frame can take.
BLOB_DAMAGE = {
    "flipped-byte": CrashFaultPolicy(corrupt_tail_prob=1.0),
    # The disk acknowledged the frame's fsync but only a prefix of the
    # write buffer reached the platter.
    "torn-tail": CrashFaultPolicy(keep_pending_prob=1.0, torn_write_prob=1.0),
    "lost-durable-tail": CrashFaultPolicy(lose_durable_tail_prob=1.0),
}


def damage_segment(dep, party, mode, monkeypatch, write):
    """Run *write* (which journals one new payload, the segment's last
    frame), then damage that frame with one storage fault."""
    segment = party.journal.blobs.filename
    if mode == "torn-tail":
        fsync = dep.stable.fsync
        monkeypatch.setattr(
            dep.stable, "fsync", lambda f: None if f == segment else fsync(f)
        )
    result = write()
    monkeypatch.undo()
    dep.stable.crash(
        BLOB_DAMAGE[mode], rng=HmacDrbg(mode.encode()), filenames=[segment]
    )
    return result


class TestDamagedBlobFailsClosed:
    """Payloads live in the journal's blob segment; damaging a frame
    must cost that payload only, never substitute other bytes, and
    never the WAL records logged after it."""

    @pytest.mark.parametrize("mode", sorted(BLOB_DAMAGE))
    def test_client_payload_lost_escalates(self, mode, monkeypatch):
        dep = make_deployment(seed=b"rec-blob-" + mode.encode(), durable=True)
        settled_payload = b"settled payload " * 8
        settled = run_upload(dep, settled_payload).transaction_id
        arm(dep, drop_first("tpnr.upload", count=99))
        journal = dep.client.journal
        lost = damage_segment(
            dep, dep.client, mode, monkeypatch,
            lambda: dep.client.upload(dep.provider.name, b"in flight " * 12),
        )
        # Evidence acked after the damaged frame: the provider's NRR
        # over the bytes it serves for the settled upload.
        dep.client.download(settled)
        # Long enough for the download, well short of the stuck
        # upload's response timeout.
        dep.run(until=dep.sim.now + 1.0)
        assert dep.client.downloads[settled].verified
        served = dep.client.evidence_store.latest(settled, Flag.DOWNLOAD_RESPONSE)
        assert served is not None
        dep.client.begin_crash(amnesia=True)
        report = recover(dep.client)
        assert f"upload escalated to resolve: {lost}" in report.actions
        assert dep.client.uploads[lost].data is None
        for handle in dep.client.uploads.values():
            if handle.data is not None:
                assert hashlib.sha256(handle.data).digest() == handle.data_hash
        assert dep.client.downloads[settled].data == settled_payload
        assert journal.acked_evidence <= dep.client.evidence_store.seen_keys()
        assert dep.client.evidence_store.holds(served)
        dep.run()
        assert dep.client.transactions[lost].status in (
            TxStatus.RESOLVED, TxStatus.FAILED,
        )

    @pytest.mark.parametrize("mode", sorted(BLOB_DAMAGE))
    def test_provider_blob_lost_convicts_provider(self, mode, monkeypatch):
        dep = make_deployment(seed=b"rec-pblob-" + mode.encode(), durable=True)
        payload = b"stored then damaged " * 8
        txn = damage_segment(
            dep, dep.provider, mode, monkeypatch,
            lambda: run_upload(dep, payload).transaction_id,
        )
        assert dep.client.transactions[txn].status is TxStatus.COMPLETED
        dep.provider.begin_crash(amnesia=True)
        recover(dep.provider)
        assert ("tpnr-data", txn) not in dep.provider.store.object_marks()
        assert dep.provider.journal.acked_evidence <= (
            dep.provider.evidence_store.seen_keys())
        result = run_download(dep, txn)
        assert not result.verified and result.tampering_detected
        assert result.data != payload
        assert dispute_tampering(dep, txn).verdict is Verdict.PROVIDER_FAULT


class TestBatchedEvidenceRecovery:
    def test_batched_evidence_verifies_after_recovery(self):
        """Batched evidence carries a leaf, not signatures: the journal
        must keep the leaf, or a recovered client holds evidence no
        arbitrator accepts."""
        dep = make_deployment(seed=b"rec-batched", durable=True, batch_size=4)
        for n in range(6):
            assert run_session(dep, bytes([n]) * 64).download.verified
        dep.settle_batches(strict=True)

        def verified():
            entries = list(dep.client.evidence_store.all_entries())
            return entries, [
                verify_opened_evidence(e, dep.registry, dep.ledger) for e in entries
            ]

        before, ok_before = verified()
        assert len(before) == 12 and all(ok_before)
        dep.client.begin_crash(amnesia=True)
        recover(dep.client)
        after, ok_after = verified()
        assert len(after) == 12 and all(ok_after)
        assert all(isinstance(e, BatchedEvidence) for e in after)
        assert [e.leaf for e in after] == [e.leaf for e in before]
        # Settlement attaches each restored item's proof from the ledger.
        dep.settle_batches(strict=True)
        assert all(not e.pending for e in dep.client.evidence_store.all_entries())


class TestRecoveryWithoutJournal:
    def test_recover_blank_slate(self):
        dep = make_deployment(seed=b"rec-nojournal", durable=False)
        run_upload(dep, b"x")
        dep.client.begin_crash(amnesia=True)
        report = recover(dep.client)
        assert report.role == "unknown"
        assert report.records_replayed == 0
        assert dep.client.recoveries == 1
        assert not dep.client.crashed


class TestTtpRecovery:
    def test_pending_resolve_reopened(self):
        """The TTP dies holding an open resolve whose query was lost:
        recovery re-opens it (fresh query + timeout) and the session
        still ends RESOLVED."""
        dep = make_deployment(seed=b"rec-ttp", durable=True)
        arm(
            dep,
            FaultPlan(
                name="withhold-then-lose-query",
                rules=(
                    # Bob never sends the receipt...
                    FaultRule(action=FaultAction.DROP, kind="tpnr.upload.receipt", count=99),
                    # ...and every query the TTP sends Bob is lost.
                    FaultRule(action=FaultAction.DROP, kind="tpnr.resolve.query", count=99),
                ),
            ),
        )
        txn = dep.client.upload(dep.provider.name, b"needs the ttp")
        # The client escalates to Resolve at response_timeout; run to
        # just past that, while the TTP still waits on its lost query.
        deadline = dep.client.policy.response_timeout + 1.0
        dep.run(until=deadline)
        assert txn in dep.ttp._pending
        # The faulty network heals at the moment of the crash; only the
        # recovered TTP's re-opened query can get through.
        dep.network.remove_adversary()
        dep.ttp.begin_crash(amnesia=True)
        assert dep.ttp._pending == {}
        report = recover(dep.ttp)
        assert f"resolve query re-armed: {txn}" in report.actions
        dep.run()
        assert dep.client.transactions[txn].status is TxStatus.RESOLVED
        assert dep.sim.pending() == 0
