"""Stable storage, crash fault policies, and the framed WAL reader."""

import hashlib
import struct
import zlib

import pytest

from repro.crypto.drbg import HmacDrbg
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


class TestStableStore:
    def test_pending_not_durable_until_fsync(self):
        store = StableStore()
        store.append("f", b"hello")
        assert store.durable_bytes("f") == b""
        assert store.volatile_view("f") == b"hello"
        store.fsync("f")
        assert store.durable_bytes("f") == b"hello"
        assert store.pending_bytes("f") == 0

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
            wal.append(record, sync=sync)
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

    def test_payload_field_becomes_a_reference(self):
        store, wal, segment = self.make()
        wal.append({"type": "client.upload", "data": self.PAYLOAD, "sig": b"\x01"},
                   blobs=segment.ref)
        digest = hashlib.sha256(self.PAYLOAD).hexdigest()
        [record] = wal.records()
        assert record == {"type": "client.upload", "data": {BLOB_TAG: digest},
                          "sig": b"\x01"}
        assert self.PAYLOAD not in store.durable_bytes("w")
        [resolved] = wal.durable_scan(segment.durable_blobs()).records
        assert resolved["data"] == self.PAYLOAD

    def test_each_payload_written_once(self):
        store, wal, segment = self.make()
        for _ in range(3):
            wal.append({"type": "r", "data": self.PAYLOAD}, blobs=segment.ref)
        wal.append({"type": "snapshot", "state": {"blobs": {"k": {"data": self.PAYLOAD}}}},
                   blobs=segment.ref)
        assert len(store.durable_bytes("w.blobs")) == 4 + 32 + len(self.PAYLOAD)

    def test_frame_durable_before_the_record(self):
        store, wal, segment = self.make()
        wal.append({"type": "r", "data": self.PAYLOAD}, sync=False, blobs=segment.ref)
        assert store.pending_bytes("w.blobs") == 0
        assert segment.durable_blobs() == {
            hashlib.sha256(self.PAYLOAD).hexdigest(): self.PAYLOAD}

    def test_missing_or_damaged_blob_resolves_to_none(self):
        store, wal, segment = self.make()
        wal.append({"type": "r", "data": self.PAYLOAD}, blobs=segment.ref)
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
        image = bytearray(store.durable_bytes("w.blobs"))
        image[4 + 32] ^= 0xFF  # first byte of the first payload
        blobs, _ = BlobSegment.scan(bytes(image))
        assert blobs == {hashlib.sha256(second).hexdigest(): second}

    def test_restart_trims_torn_tail_and_rewrites_lost_blob(self):
        store, _, segment = self.make()
        segment.ref(self.PAYLOAD)
        store.crash(CrashFaultPolicy(lose_durable_tail_prob=1.0), rng=HmacDrbg(b"chop"))
        segment.restart()
        assert store.durable_bytes("w.blobs") == b""  # the torn frame is cut
        segment.ref(self.PAYLOAD)  # no longer known written: appended again
        assert segment.durable_blobs() == {
            hashlib.sha256(self.PAYLOAD).hexdigest(): self.PAYLOAD}
