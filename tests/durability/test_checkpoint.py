"""Snapshot + replay: PartyState and the live-party codecs."""

import hashlib
import random
import struct

from repro.core.protocol import make_deployment, run_session
from repro.core.transaction import TxStatus
from repro.durability.checkpoint import (
    PartyState,
    apply_state,
    capture_state,
    rebuild,
)
from repro.durability.wal import BlobSegment


def evidence_record(signer="bob", seq=0, nonce=b"\x01" * 8):
    """A minimal but structurally complete evidence WAL record."""
    return {
        "type": "evidence",
        "signer": signer,
        "header": {
            "flag": "UPLOAD_RECEIPT",
            "sender": signer,
            "recipient": "alice",
            "ttp": "ttp",
            "txn": "TXN-1",
            "seq": seq,
            "nonce": nonce,
            "time_limit": 0.0,
            "data_hash": b"\x02" * 32,
        },
        "sig_data": b"\x03",
        "sig_header": b"\x04",
    }


class TestApplyRecord:
    def test_send_folds_with_max(self):
        state = PartyState("client")
        for seq in (0, 5, 2):
            state.apply_record({"type": "send", "peer": "bob", "seq": seq})
        assert state.peers["bob"]["send"] == 6

    def test_recv_folds_max_and_collects_nonces(self):
        state = PartyState("client")
        state.apply_record({"type": "recv", "peer": "bob", "seq": 3, "nonce": b"a"})
        state.apply_record({"type": "recv", "peer": "bob", "seq": 1, "nonce": b"b"})
        assert state.peers["bob"]["recv"] == 3
        assert state.peers["bob"]["nonces"] == {b"a", b"b"}

    def test_evidence_deduplicated_by_identity(self):
        state = PartyState("client")
        state.apply_record(evidence_record())
        state.apply_record(evidence_record())  # exact duplicate
        state.apply_record(evidence_record(seq=1, nonce=b"\x09" * 8))
        assert len(state.evidence) == 2
        assert len(state.evidence_keys()) == 2

    def test_replay_is_idempotent(self):
        """A record reflected in a snapshot and replayed after it must
        do no harm — the property snapshots-at-any-boundary relies on."""
        records = [
            {"type": "send", "peer": "bob", "seq": 0},
            {"type": "recv", "peer": "bob", "seq": 0, "nonce": b"n"},
            evidence_record(),
        ]
        once = PartyState("client")
        for r in records:
            once.apply_record(r)
        twice = PartyState("client")
        for r in records + records:
            twice.apply_record(r)
        assert once.to_dict() == twice.to_dict()

    def test_unknown_record_type_is_noop(self):
        state = PartyState("client")
        state.apply_record({"type": "future.extension", "anything": 1})
        assert state.to_dict() == PartyState("client").to_dict()

    def test_ttp_done_clears_pending(self):
        state = PartyState("ttp")
        state.apply_record(
            {
                "type": "ttp.pending",
                "txn": "T",
                "requester": "alice",
                "counterparty": "bob",
                "report": "r",
                "data_hash": b"",
            }
        )
        state.apply_record({"type": "ttp.done", "txn": "T", "outcome": "relayed"})
        assert state.role_state["pending"] == {}


class TestSerialization:
    def test_dict_round_trip(self):
        state = PartyState("client")
        state.apply_record({"type": "send", "peer": "bob", "seq": 4})
        state.apply_record({"type": "recv", "peer": "bob", "seq": 2, "nonce": b"n"})
        state.apply_record(evidence_record())
        restored = PartyState.from_dict(state.to_dict())
        assert restored.to_dict() == state.to_dict()
        assert restored.evidence_keys() == state.evidence_keys()

    def test_rebuild_prefers_latest_snapshot(self):
        early = PartyState("client")
        early.apply_record({"type": "send", "peer": "bob", "seq": 0})
        records = [
            {"type": "send", "peer": "carol", "seq": 9},  # pre-snapshot noise
            {"type": "snapshot", "state": early.to_dict()},
            {"type": "send", "peer": "bob", "seq": 1},
        ]
        state, snapshots = rebuild(records, "client")
        assert snapshots == 1
        assert "carol" not in state.peers  # snapshot replaced, not merged
        assert state.peers["bob"]["send"] == 2


class TestLivePartyRoundTrip:
    def roundtrip(self, party, role):
        state = capture_state(party, role)
        rebuilt = PartyState.from_dict(state.to_dict())
        return state, rebuilt

    def test_every_role_survives_capture_apply(self):
        dep = make_deployment(seed=b"ckpt-roundtrip", durable=True)
        outcome = run_session(dep, b"payload bytes")
        assert outcome.upload_status is TxStatus.COMPLETED
        for party, role in (
            (dep.client, "client"),
            (dep.provider, "provider"),
            (dep.ttp, "ttp"),
        ):
            before = capture_state(party, role)
            party.begin_crash(amnesia=True)
            party.end_crash()
            assert len(party.evidence_store) == 0  # wipe really wiped
            apply_state(party, before)
            after = capture_state(party, role)
            assert after.to_dict() == before.to_dict()

    def test_provider_blobs_restored_byte_for_byte(self):
        dep = make_deployment(seed=b"ckpt-blobs", durable=True)
        run_session(dep, b"the stored object")
        state = capture_state(dep.provider, "provider")
        dep.provider.begin_crash(amnesia=True)
        dep.provider.end_crash()
        apply_state(dep.provider, state)
        objs = dep.provider.store.objects()
        assert [o.data for o in objs] == [b"the stored object"]


def byte_values(value):
    """Every bytes value anywhere inside a decoded WAL record."""
    if isinstance(value, bytes):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from byte_values(v)
    elif isinstance(value, list):
        for v in value:
            yield from byte_values(v)


class TestSnapshotsReferToPayloads:
    """Payloads are journaled once, in the blob segment: snapshots and
    payload records carry their SHA-256, so WAL frames stay small no
    matter how much the party stores."""

    PAYLOAD = 64 * 1024

    def test_wal_frames_stay_below_one_payload(self):
        dep = make_deployment(seed=b"ckpt-blob-segment", durable=True,
                              snapshot_interval=4)
        rng = random.Random("ckpt-blob-segment")
        payloads = [rng.randbytes(self.PAYLOAD) for _ in range(20)]
        for payload in payloads:
            assert run_session(dep, payload).download.verified
        expected = {hashlib.sha256(p).hexdigest(): p for p in payloads}
        for party in (dep.client, dep.provider):
            journal = party.journal
            assert journal.snapshots_written >= 20
            image = dep.stable.durable_bytes(journal.wal.filename)
            frames, offset = [], 0
            while offset < len(image):
                (length,) = struct.unpack_from(">I", image, offset)
                frames.append(length)
                offset += 8 + length
            assert max(frames) < self.PAYLOAD
            for record in journal.wal.records():
                assert all(len(v) < self.PAYLOAD for v in byte_values(record))
            segment = dep.stable.durable_bytes(journal.blobs.filename)
            assert BlobSegment.scan(segment) == (expected, len(segment))
            # Each distinct payload exactly once: one frame apiece.
            assert len(segment) == sum(4 + 32 + len(p) for p in payloads)
