"""Stable storage, crash fault policies, and the framed WAL reader."""

import hashlib
import json
import struct
import zlib
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.durability.journal import PartyJournal
from repro.durability.wal import (
    BLOB_TAG,
    BlobSegment,
    CrashFaultPolicy,
    StableStore,
    WriteAheadLog,
    decode_record,
    encode_record,
)
from repro.errors import StorageError


class TestRecordCodec:
    def test_round_trip_with_bytes(self):
        record = {"type": "evidence", "sig": b"\x00\xff", "nested": {"h": b"ab"}}
        assert decode_record(encode_record(record)) == record

    def test_canonical_sorted_compact(self):
        a = encode_record({"b": 1, "a": 2})
        b = encode_record({"a": 2, "b": 1})
        assert a == b
        assert b" " not in a

    def test_unencodable_rejected(self):
        with pytest.raises(StorageError):
            encode_record({"x": object()})


def walker_encode(record, blobs=None):
    """The record encoder as it was before the C encoder pass: a Python
    walk builds a JSON-able copy (payload fields swapped for blob
    references, byte strings hex-tagged), then ``json.dumps`` encodes
    it.  Kept here as the oracle for :func:`encode_record` and, with
    *blobs*, for the payload fields the journal swaps by record shape."""

    def to_jsonable(value):
        if isinstance(value, (bytes, bytearray)):
            return {"__bytes__": bytes(value).hex()}
        if isinstance(value, dict):
            return {
                str(k): {BLOB_TAG: blobs(v)}
                if k == "data" and blobs is not None and isinstance(v, bytes)
                else to_jsonable(v)
                for k, v in value.items()
            }
        if isinstance(value, (list, tuple)):
            return [to_jsonable(v) for v in value]
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        raise StorageError(f"cannot journal a {type(value).__name__}")

    return json.dumps(to_jsonable(record), sort_keys=True, separators=(",", ":")).encode()


_KEYS = st.one_of(st.sampled_from(["data", "type", "state", "blobs", "txn"]), st.text())
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.binary(max_size=64), st.binary(max_size=64).map(bytearray),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=24,
)
_PAYLOADS = st.one_of(st.binary(max_size=64), st.none(), st.binary(max_size=64).map(bytearray))
_NAMES = st.text(max_size=8)
_FLAT = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
                  st.binary(max_size=16))
_HEADERS = st.fixed_dictionaries({
    k: _FLAT for k in ("flag", "sender", "recipient", "txn", "seq", "nonce", "data_hash")})
#: The record shapes the roles log: flat fields, an evidence ``header``
#: dict, ``flags`` lists, and a top-level ``data`` payload.
_LOGGED = st.fixed_dictionaries({}, optional={
    "txn": _NAMES, "peer": _NAMES, "seq": st.integers(), "nonce": st.binary(max_size=16),
    "sig_data": st.binary(max_size=16), "verified": st.booleans(), "at": st.floats(),
    "header": _HEADERS, "flags": st.lists(st.text(max_size=4), max_size=3),
    "data": _PAYLOADS,
})
#: Snapshot-shaped states: payloads in the entries of the payload maps,
#: removed keys as ``None``, other maps without payloads.
_ENTRY = st.fixed_dictionaries({"data": _PAYLOADS, "key": _NAMES, "flags": st.lists(_NAMES, max_size=2)})
_PAYLOAD_MAP = st.dictionaries(_NAMES, st.one_of(st.none(), _ENTRY), max_size=4)
_SNAPSHOTS = st.fixed_dictionaries({
    "role": _NAMES,
    "transactions": st.dictionaries(_NAMES, st.one_of(st.none(), st.fixed_dictionaries(
        {"data_hash": st.binary(max_size=16), "data_size": st.integers()})), max_size=3),
    "peers": st.dictionaries(_NAMES, st.fixed_dictionaries(
        {"send": st.integers(), "nonces": st.lists(st.binary(max_size=8), max_size=2)}), max_size=2),
    "evidence": st.lists(st.fixed_dictionaries(
        {"signer": _NAMES, "header": _HEADERS, "sig_data": st.binary(max_size=16)}), max_size=3),
    "role_state": st.fixed_dictionaries({}, optional={
        "uploads": _PAYLOAD_MAP, "downloads": _PAYLOAD_MAP, "blobs": _PAYLOAD_MAP,
        "grants": st.dictionaries(_NAMES, st.lists(_NAMES, max_size=2), max_size=2),
        "pending": st.dictionaries(_NAMES, st.fixed_dictionaries(
            {"report": st.text(max_size=8), "data_hash": st.binary(max_size=16)}), max_size=2),
        "acked": st.lists(st.lists(_NAMES, min_size=2, max_size=2), max_size=2),
    }),
})
_RECORDS = st.one_of(
    st.dictionaries(_KEYS, _VALUES, max_size=6),
    _SNAPSHOTS.map(lambda state: {"type": "snapshot", "state": state}),
)


class _StubState:
    """What :func:`~repro.durability.checkpoint.capture_state` returns,
    reduced to the snapshot it serializes: each call hands out fresh
    maps over the same entries, as ``PartyState.to_dict`` does."""

    def __init__(self, snapshot):
        self.snapshot = snapshot

    def to_dict(self, base=None):
        snap = self.snapshot
        return {**snap, "role_state": {
            name: entries.copy() for name, entries in snap["role_state"].items()}}


def snapshot_through(journal, snapshot):
    """Have *journal* write *snapshot* as its (full) snapshot record."""
    party = SimpleNamespace(evidence_store=None, obs=SimpleNamespace(enabled=False))
    journal.bind(party)
    journal._base_archive = party.evidence_store
    with mock.patch("repro.durability.journal.capture_state",
                    lambda *args: _StubState(snapshot)):
        journal.write_snapshot()


class TestEncoderMatchesTheWalker:
    """:func:`encode_record` writes the bytes the old per-value walk plus
    ``json.dumps`` wrote, and the journal, swapping payloads by record
    shape, writes the bytes and blob frames of the walk that swapped
    every ``data`` field it met."""

    @staticmethod
    def recording_ref(calls):
        def ref(data):
            calls.append(data)
            return hashlib.sha256(data).hexdigest()
        return ref

    @staticmethod
    def journal_with_recorded_refs(calls):
        store = StableStore()
        journal = PartyJournal(store, "w", "client")
        ref = journal.blobs.ref

        def recorded(data):
            calls.append(data)
            return ref(data)

        journal.blobs.ref = recorded
        return store, journal

    def assert_journal_wrote_the_walkers_bytes(self, store, record, new_calls):
        old_calls = []
        payload = walker_encode(record, self.recording_ref(old_calls))
        frame = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        assert store.volatile_view("w") == frame
        assert new_calls == old_calls
        walker_segment = BlobSegment(StableStore(), "oracle.blobs")
        for data in old_calls:
            walker_segment.ref(data)
        assert store.volatile_view("w.blobs") == \
            walker_segment.store.volatile_view("oracle.blobs")

    @given(_RECORDS)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_and_same_blobs(self, record):
        """The encoder half; the journal's blob frames are checked below."""
        assert encode_record(record) == walker_encode(record)

    @given(st.sampled_from(["client.upload", "client.download.result", "provider.blob",
                            "evidence", "recv", "txn"]), _LOGGED)
    @settings(max_examples=300, deadline=None)
    def test_logged_records_same_bytes_and_same_blobs(self, record_type, fields):
        calls = []
        store, journal = self.journal_with_recorded_refs(calls)
        journal.log(record_type, **fields)
        self.assert_journal_wrote_the_walkers_bytes(
            store, {"type": record_type, **fields}, calls)

    @given(_SNAPSHOTS)
    @settings(max_examples=300, deadline=None)
    def test_snapshots_same_bytes_and_same_blobs(self, snapshot):
        calls = []
        store, journal = self.journal_with_recorded_refs(calls)
        snapshot_through(journal, snapshot)
        self.assert_journal_wrote_the_walkers_bytes(
            store, {"type": "snapshot", "state": snapshot}, calls)

    def test_record_is_not_changed(self):
        record = {"type": "snapshot", "state": {"blobs": {"k": {"data": b"payload"}}},
                  "sig": b"", "pair": (1, 2.5, "\u00e9")}
        before = repr(record)
        encode_record(record)
        assert repr(record) == before
        # The snapshot's entries are the captured state's, which the
        # next snapshot takes as its base: the journal swaps copies.
        snapshot = {"role": "client", "role_state": {
            "uploads": {"t": {"data": b"payload", "provider": "bob"}},
            "downloads": {"t": {"data": b"read back", "flags": ["NRR"]}, "u": None}}}
        before = repr(snapshot)
        snapshot_through(PartyJournal(StableStore(), "w", "client"), snapshot)
        assert repr(snapshot) == before

    @pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, [b"ok", {"x": frozenset()}]])
    @pytest.mark.parametrize("with_blobs", [False, True])
    def test_unjournalable_value_rejected_like_the_walker(self, bad, with_blobs):
        fields = {"data": b"payload", "nested": {"v": bad}}
        ref = self.recording_ref([]) if with_blobs else None
        with pytest.raises(StorageError) as old:
            walker_encode({"type": "r", **fields}, ref)
        with pytest.raises(StorageError) as new:
            if with_blobs:
                PartyJournal(StableStore(), "w", "client").log("r", **fields)
            else:
                encode_record({"type": "r", **fields})
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith("cannot journal a ")


class TestStableStore:
    def test_pending_not_durable_until_fsync(self):
        store = StableStore()
        store.append("f", b"hello")
        assert store.durable_bytes("f") == b""
        assert store.volatile_view("f") == b"hello"
        store.fsync("f")
        assert store.durable_bytes("f") == b"hello"
        assert store.volatile_view("f") == store.durable_bytes("f")

    def test_honest_crash_loses_pending_keeps_durable(self):
        store = StableStore()
        store.append("f", b"durable")
        store.fsync("f")
        store.append("f", b"buffered")
        store.crash()
        assert store.durable_bytes("f") == b"durable"
        assert store.volatile_view("f") == b"durable"

    def test_keep_pending_fault_promotes_buffer(self):
        store = StableStore()
        store.append("f", b"tail")
        store.crash(
            CrashFaultPolicy(keep_pending_prob=1.0),
            rng=HmacDrbg(b"keep"),
        )
        assert store.durable_bytes("f") == b"tail"

    def test_torn_write_keeps_strict_prefix(self):
        store = StableStore()
        store.append("f", b"0123456789")
        store.crash(
            CrashFaultPolicy(keep_pending_prob=1.0, torn_write_prob=1.0),
            rng=HmacDrbg(b"torn"),
        )
        survivor = store.durable_bytes("f")
        assert b"0123456789".startswith(survivor)
        assert len(survivor) < 10

    def test_lost_durable_tail_fault(self):
        store = StableStore()
        store.append("f", b"x" * 100)
        store.fsync("f")
        store.crash(
            CrashFaultPolicy(lose_durable_tail_prob=1.0),
            rng=HmacDrbg(b"lose"),
        )
        assert 100 - 64 <= len(store.durable_bytes("f")) < 100

    def test_corrupt_tail_fault_flips_one_byte(self):
        store = StableStore()
        original = bytes(range(64))
        store.append("f", original)
        store.fsync("f")
        store.crash(
            CrashFaultPolicy(corrupt_tail_prob=1.0),
            rng=HmacDrbg(b"corrupt"),
        )
        after = store.durable_bytes("f")
        assert len(after) == 64
        diffs = [i for i in range(64) if after[i] != original[i]]
        assert len(diffs) == 1
        assert diffs[0] >= 32  # within the last-32-bytes span

    def test_crash_deterministic_given_seed(self):
        def run():
            store = StableStore()
            store.append("f", b"A" * 50)
            store.crash(
                CrashFaultPolicy(keep_pending_prob=0.5, torn_write_prob=0.5),
                rng=HmacDrbg(b"det"),
            )
            return store.durable_bytes("f")

        assert run() == run()

    def test_crash_only_targets_named_files(self):
        store = StableStore()
        store.append("a", b"1")
        store.append("b", b"2")
        store.crash(filenames=["a"])
        assert store.volatile_view("a") == b""
        assert store.volatile_view("b") == b"2"


class TestWalScan:
    def make_log(self, records, sync=True):
        store = StableStore()
        wal = WriteAheadLog(store, "w")
        for record in records:
            wal.append(record)
            if sync:
                store.fsync("w")
        return store, wal

    def test_empty_image(self):
        scan = WriteAheadLog.scan(b"")
        assert scan.records == [] and not scan.truncated

    def test_reads_back_in_order(self):
        records = [{"type": "r", "i": i} for i in range(5)]
        _, wal = self.make_log(records)
        assert wal.durable_scan().records == records

    def test_unsynced_records_not_durable(self):
        store, wal = self.make_log([{"type": "r"}], sync=False)
        assert wal.durable_scan().records == []
        assert list(wal.records()) == [{"type": "r"}]
        store.crash()
        assert list(wal.records()) == []

    def test_corrupted_tail_truncates_to_last_valid_record(self):
        """The satellite-4 requirement: a damaged tail record costs
        exactly itself — earlier records survive and nothing raises."""
        store, wal = self.make_log([{"type": "r", "i": i} for i in range(3)])
        image = bytearray(store.durable_bytes("w"))
        image[-1] ^= 0xFF
        scan = WriteAheadLog.scan(bytes(image))
        assert scan.records == [{"type": "r", "i": 0}, {"type": "r", "i": 1}]
        assert scan.truncated

    def test_torn_final_frame_truncates(self):
        store, wal = self.make_log([{"type": "r", "i": i} for i in range(3)])
        image = store.durable_bytes("w")
        scan = WriteAheadLog.scan(image[: len(image) - 3])
        assert len(scan.records) == 2
        assert scan.truncated

    def test_short_header_truncates(self):
        store, wal = self.make_log([{"type": "r"}])
        image = store.durable_bytes("w") + b"\x00\x00"
        scan = WriteAheadLog.scan(image)
        assert len(scan.records) == 1
        assert scan.truncated

    def test_absurd_length_truncates(self):
        garbage = struct.pack(">II", 2**31, 0) + b"junk"
        scan = WriteAheadLog.scan(garbage)
        assert scan.records == [] and scan.truncated

    def test_valid_crc_undecodable_payload_truncates(self):
        payload = b"not json"
        frame = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        scan = WriteAheadLog.scan(frame)
        assert scan.records == [] and scan.truncated

    def test_mid_log_damage_drops_everything_after(self):
        store, wal = self.make_log([{"type": "r", "i": i} for i in range(4)])
        image = bytearray(store.durable_bytes("w"))
        image[len(image) // 2] ^= 0xFF
        scan = WriteAheadLog.scan(bytes(image))
        assert scan.truncated
        assert [r["i"] for r in scan.records] == list(range(len(scan.records)))

    def test_oversized_record_rejected_at_write(self):
        store = StableStore()
        wal = WriteAheadLog(store, "w")
        with pytest.raises(StorageError, match="too large"):
            wal.append({"blob": b"x" * (17 * 1024 * 1024)})


class TestBlobSegment:
    PAYLOAD = b"stored payload " * 4

    def make(self):
        store = StableStore()
        return store, WriteAheadLog(store, "w"), BlobSegment(store, "w.blobs")

    @staticmethod
    def commit(store, segment):
        """What the journal's commit does: the segment, then the log."""
        segment.sync()
        store.fsync("w")

    def test_payload_field_becomes_a_reference(self):
        store = StableStore()
        journal = PartyJournal(store, "w", "client")
        journal.log("client.upload", data=self.PAYLOAD, sig=b"\x01")
        digest = hashlib.sha256(self.PAYLOAD).hexdigest()
        [record] = journal.wal.records()
        assert record == {"type": "client.upload", "data": {BLOB_TAG: digest},
                          "sig": b"\x01"}
        assert self.PAYLOAD not in store.durable_bytes("w")
        [resolved] = journal.durable_scan().records
        assert resolved["data"] == self.PAYLOAD

    def test_each_payload_written_once(self):
        store = StableStore()
        journal = PartyJournal(store, "w", "provider")
        for _ in range(3):
            journal.log("r", data=self.PAYLOAD)
        snapshot_through(journal, {"role": "provider", "role_state": {
            "blobs": {"k": {"data": self.PAYLOAD, "key": "k"}}}})
        assert len(store.durable_bytes("w.blobs")) == 4 + 32 + len(self.PAYLOAD)
        assert [r["data"] for r in journal.durable_scan().records[:3]] == [self.PAYLOAD] * 3

    def test_frame_durable_before_the_record(self, monkeypatch):
        """Appending makes nothing durable; the journal's commit fsyncs
        the segment before the log, so a durable record never refers to
        a frame that is not."""
        store = StableStore()
        journal = PartyJournal(store, "w", "client")
        synced = []
        fsync = store.fsync
        monkeypatch.setattr(store, "fsync", lambda f: (synced.append(f), fsync(f)))
        journal.wal.append({"type": "r", "data": {BLOB_TAG: journal.blobs.ref(self.PAYLOAD)}})
        assert store.durable_bytes("w") == store.durable_bytes("w.blobs") == b""
        journal.committed(journal.log, "r", data=self.PAYLOAD)
        assert synced == ["w.blobs", "w"]
        assert journal.blobs.durable_blobs() == {
            hashlib.sha256(self.PAYLOAD).hexdigest(): self.PAYLOAD}

    def test_missing_or_damaged_blob_resolves_to_none(self):
        store, wal, segment = self.make()
        wal.append({"type": "r", "data": {BLOB_TAG: segment.ref(self.PAYLOAD)}})
        self.commit(store, segment)
        image = bytearray(store.durable_bytes("w.blobs"))
        image[-1] ^= 0xFF
        blobs, end = BlobSegment.scan(bytes(image))
        assert blobs == {} and end == len(image)
        [record] = wal.durable_scan(blobs).records
        assert record["data"] is None

    def test_damaged_frame_skipped_later_frames_kept(self):
        store, _, segment = self.make()
        first, second = b"first payload", b"second payload"
        segment.ref(first)
        segment.ref(second)
        segment.sync()
        image = bytearray(store.durable_bytes("w.blobs"))
        image[4 + 32] ^= 0xFF  # first byte of the first payload
        blobs, _ = BlobSegment.scan(bytes(image))
        assert blobs == {hashlib.sha256(second).hexdigest(): second}

    def test_restart_trims_torn_tail_and_rewrites_lost_blob(self):
        store, _, segment = self.make()
        segment.ref(self.PAYLOAD)
        segment.sync()
        store.crash(CrashFaultPolicy(lose_durable_tail_prob=1.0), rng=HmacDrbg(b"chop"))
        segment.restart()
        assert store.durable_bytes("w.blobs") == b""  # the torn frame is cut
        segment.ref(self.PAYLOAD)  # no longer known written: appended again
        segment.sync()
        assert segment.durable_blobs() == {
            hashlib.sha256(self.PAYLOAD).hexdigest(): self.PAYLOAD}
