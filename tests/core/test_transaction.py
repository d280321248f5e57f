"""Transaction records, peer anti-replay state, evidence store."""

import itertools

import pytest

from repro.core.evidence import OpenedEvidence
from repro.core.messages import Flag, Header
from repro.core.transaction import (
    EvidenceStore,
    PeerState,
    TransactionRecord,
    TxStatus,
    new_transaction_id,
)
from repro.errors import ProtocolError, ReplayError


class TestTransactionIds:
    def test_unique(self):
        counter = itertools.count(1)
        ids = {new_transaction_id(counter) for _ in range(100)}
        assert len(ids) == 100
        # Each counter starts afresh: ids depend only on the owner's history.
        assert new_transaction_id(itertools.count(1)) == "TXN-00000001"

    def test_clients_of_one_world_get_distinct_ids(self):
        """Two clients uploading to one provider never reuse an id."""
        from repro.core.protocol import make_deployment, run_upload

        dep = make_deployment(seed=b"two-uploaders", extra_client_names=("carol",))
        alice = run_upload(dep, b"alice payload")
        carol = dep.extra_clients["carol"]
        txn = carol.upload(dep.provider.name, b"carol payload")
        dep.run()
        assert txn != alice.transaction_id
        assert carol.transactions[txn].status is TxStatus.COMPLETED

    def test_prefix(self):
        assert new_transaction_id(itertools.count(1), "ZG").startswith("ZG-")


class TestTransactionRecord:
    def test_finish(self):
        record = TransactionRecord("T", "client", "bob")
        record.finish(TxStatus.COMPLETED, 1.0, "done")
        assert record.status is TxStatus.COMPLETED
        assert record.finished_at == 1.0
        assert record.detail == "done"

    def test_double_finish_rejected(self):
        record = TransactionRecord("T", "client", "bob")
        record.finish(TxStatus.COMPLETED, 1.0)
        with pytest.raises(ProtocolError):
            record.finish(TxStatus.FAILED, 2.0)

    def test_resolving_may_finish(self):
        record = TransactionRecord("T", "client", "bob", status=TxStatus.RESOLVING)
        record.finish(TxStatus.RESOLVED, 3.0)
        assert record.status is TxStatus.RESOLVED


class TestPeerState:
    def test_seq_allocation_monotonic(self):
        state = PeerState()
        assert [state.allocate_seq() for _ in range(3)] == [0, 1, 2]

    def test_receive_in_order(self):
        state = PeerState()
        state.check_receive(0, b"n0")
        state.check_receive(1, b"n1")
        assert state.highest_recv_seq == 1

    def test_gaps_allowed(self):
        """Sequence numbers must increase, not be contiguous (messages
        to other peers consume numbers too)."""
        state = PeerState()
        state.check_receive(0, b"n0")
        state.check_receive(5, b"n5")

    def test_replayed_seq_rejected(self):
        state = PeerState()
        state.check_receive(1, b"n1")
        with pytest.raises(ReplayError):
            state.check_receive(1, b"other-nonce")

    def test_old_seq_rejected(self):
        state = PeerState()
        state.check_receive(5, b"n5")
        with pytest.raises(ReplayError):
            state.check_receive(3, b"n3")

    def test_nonce_reuse_rejected(self):
        state = PeerState()
        state.check_receive(0, b"same")
        with pytest.raises(ReplayError):
            state.check_receive(1, b"same")

    def test_enforcement_switches(self):
        state = PeerState()
        state.check_receive(1, b"n")
        # both defences off: the duplicate goes through
        state.check_receive(1, b"n", enforce_sequence=False, enforce_nonce=False)

    def test_nonce_only_enforcement(self):
        state = PeerState()
        state.check_receive(1, b"n1")
        state.check_receive(0, b"n0", enforce_sequence=False)
        with pytest.raises(ReplayError):
            state.check_receive(0, b"n0", enforce_sequence=False)


def make_evidence(txn="T1", flag=Flag.UPLOAD, signer="alice"):
    header = Header(
        flag=flag,
        sender_id=signer,
        recipient_id="bob",
        ttp_id="ttp",
        transaction_id=txn,
        sequence_number=0,
        nonce=b"n" * 16,
        time_limit=1.0,
        data_hash=b"h" * 32,
    )
    return OpenedEvidence(header, b"sig1", b"sig2", signer)


class TestEvidenceStore:
    def test_add_and_fetch(self):
        store = EvidenceStore("alice")
        store.add(make_evidence("T1"))
        store.add(make_evidence("T1", flag=Flag.UPLOAD_RECEIPT))
        store.add(make_evidence("T2"))
        assert len(store.for_transaction("T1")) == 2
        assert len(store) == 3
        assert store.transactions() == ["T1", "T2"]

    def test_latest_by_flag(self):
        store = EvidenceStore("alice")
        store.add(make_evidence("T1", flag=Flag.UPLOAD))
        store.add(make_evidence("T1", flag=Flag.UPLOAD_RECEIPT))
        latest = store.latest("T1", Flag.UPLOAD_RECEIPT)
        assert latest is not None and latest.header.flag is Flag.UPLOAD_RECEIPT

    def test_latest_missing(self):
        store = EvidenceStore("alice")
        assert store.latest("T1") is None
        assert store.latest("T1", Flag.ABORT) is None

    def test_unknown_transaction_empty(self):
        assert EvidenceStore("x").for_transaction("nope") == []
