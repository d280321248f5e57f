"""Simulated stable storage and a checksummed write-ahead log.

The persistence model (PAPERS.md: *Don't Trust the Cloud, Verify*
argues integrity protocols must be stated against one) is the classic
two-tier disk abstraction:

* bytes **appended** to a file land in a volatile write buffer;
* **fsync** moves the buffer to the durable region;
* a **crash** discards the buffer — except when a seeded
  :class:`CrashFaultPolicy` injects the realistic failure modes: a torn
  write (a byte-prefix of the buffer reached the platter), a partial
  fsync (the platter acknowledged more than it kept), a corrupted or
  lost durable tail (firmware lying about write-back caches).

On top of that sits :class:`WriteAheadLog`: length+CRC-framed records
(``>I length, >I crc32, payload``) encoded as canonical JSON with
hex-tagged byte strings.  The reader (:meth:`WriteAheadLog.scan`)
**truncates at the first damaged frame** instead of raising — a torn
tail must cost at most the un-synced suffix, never the whole log.

Stored payloads do not go through the log.  A :class:`BlobSegment`
beside it holds each payload once, named by its SHA-256 — the H(data)
every TPNR NRO/NRR signs — and the log records refer to it as
``{"__blob__": <hex digest>}`` (Venus, arXiv:1502.04496, likewise keeps
objects named by hash apart from their integrity metadata).  The
journal swaps each payload field for its reference by record shape,
before the log sees the record; the log encodes what it is given.  A
reference resolves only to a blob whose bytes re-hash to it; one with
no intact blob behind it resolves to ``None``, never to other bytes.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator

from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import digest
from ..errors import StorageError

__all__ = [
    "BLOB_TAG",
    "BlobSegment",
    "CrashFaultPolicy",
    "StableStore",
    "WalScan",
    "WriteAheadLog",
    "encode_record",
    "decode_record",
]

_FRAME_HEADER = struct.Struct(">II")  # (payload length, crc32(payload))
_MAX_RECORD = 16 * 1024 * 1024
_BYTES_TAG = "__bytes__"
BLOB_TAG = "__blob__"
_BLOB_HEADER = struct.Struct(">I")  # payload length; the SHA-256 follows
_DIGEST_SIZE = 32


# ---------------------------------------------------------------------------
# Record codec: canonical JSON with tagged byte strings
# ---------------------------------------------------------------------------


def _tag_bytes(value: Any) -> dict:
    """The encoder's hook for what JSON has no type for: a byte string
    becomes ``{"__bytes__": <hex>}``; anything else cannot be journaled."""
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: value.hex()}
    raise StorageError(f"cannot journal a {type(value).__name__}")


#: The C encoder of ``json.JSONEncoder(sort_keys=True,
#: separators=(",", ":"), default=_tag_bytes)``, made once: the
#: encoder's own ``encode`` rebuilds it for every call.  No circular
#: check (a record is a tree), ASCII output, NaN allowed, as
#: ``json.dumps`` writes them.
_encode_chunks = c_make_encoder(
    None, _tag_bytes, encode_basestring_ascii, None, ":", ",", True, False, True
)


def _from_jsonable(value: Any, blobs: dict[str, bytes] | None = None) -> Any:
    if isinstance(value, dict):
        if len(value) == 1:
            tag, body = next(iter(value.items()))
            if tag == _BYTES_TAG:
                return bytes.fromhex(body)
            if tag == BLOB_TAG and blobs is not None:
                return blobs.get(body)
        return {k: _from_jsonable(v, blobs) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v, blobs) for v in value]
    return value


def encode_record(record: dict) -> bytes:
    """Canonical (sorted-key, compact) encoding of one WAL record: one
    C encoder pass that hex-tags every byte string.  A payload reaches
    it already swapped for its blob reference (the journal swaps the
    payload fields it writes, :class:`~repro.durability.journal.PartyJournal`)."""
    return "".join(_encode_chunks(record, 0)).encode()


def decode_record(payload: bytes, blobs: dict[str, bytes] | None = None) -> dict:
    """Inverse of :func:`encode_record`.  With *blobs* (hex digest ->
    intact bytes) references resolve to their bytes, or to ``None`` when
    no intact blob carries that digest; without it they stay
    ``{"__blob__": <hex digest>}``."""
    return _from_jsonable(json.loads(payload.decode()), blobs)


# ---------------------------------------------------------------------------
# Stable storage with crash faults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashFaultPolicy:
    """Seeded storage-fault mix applied when a :class:`StableStore`
    crashes.  The default (all zeros) is an honest disk: fsynced bytes
    survive, buffered bytes vanish.

    :param keep_pending_prob: chance the un-synced buffer (or a prefix
        of it) reached the platter anyway — the flip side of a lying
        write-back cache, which recovery must treat as a *bonus*, never
        rely on.
    :param torn_write_prob: given the buffer survived, chance only a
        byte-prefix of it did (a torn frame the WAL reader must stop at).
    :param corrupt_tail_prob: chance a byte near the surviving end is
        flipped (media error on the last sector).
    :param lose_durable_tail_prob: chance a few *fsynced* tail bytes
        vanish — firmware lying about durability.  Enabling this can
        violate the no-acknowledged-loss invariant by construction; it
        exists so tests can show the audit *catches* that class.
    """

    keep_pending_prob: float = 0.0
    torn_write_prob: float = 0.0
    corrupt_tail_prob: float = 0.0
    lose_durable_tail_prob: float = 0.0


HONEST_DISK = CrashFaultPolicy()


class _StableFile:
    __slots__ = ("durable", "pending")

    def __init__(self) -> None:
        self.durable = bytearray()
        self.pending = bytearray()


class StableStore:
    """Named byte files with an explicit durable/buffered boundary."""

    def __init__(self, name: str = "stable") -> None:
        self.name = name
        self._files: dict[str, _StableFile] = {}
        self.crashes = 0
        self.fsyncs = 0

    def _file(self, filename: str) -> _StableFile:
        f = self._files.get(filename)
        if f is None:
            f = self._files[filename] = _StableFile()
        return f

    def append(self, filename: str, data: bytes) -> None:
        """Buffer *data* at the end of *filename* (volatile until fsync)."""
        self._file(filename).pending.extend(data)

    def fsync(self, filename: str) -> None:
        """Make every buffered byte of *filename* durable."""
        f = self._file(filename)
        f.durable.extend(f.pending)
        f.pending.clear()
        self.fsyncs += 1

    def durable_bytes(self, filename: str) -> bytes:
        """What would survive a crash right now."""
        return bytes(self._file(filename).durable)

    def volatile_view(self, filename: str) -> bytes:
        """What the running process sees (durable + buffered)."""
        f = self._file(filename)
        return bytes(f.durable) + bytes(f.pending)

    def truncate_durable(self, filename: str, size: int) -> None:
        """Cut *filename*'s durable region to *size* bytes (a restarted
        process trimming an unparseable tail before appending again)."""
        del self._file(filename).durable[size:]

    def filenames(self) -> list[str]:
        return sorted(self._files)

    def crash(
        self,
        policy: CrashFaultPolicy = HONEST_DISK,
        rng: HmacDrbg | None = None,
        filenames: list[str] | None = None,
    ) -> None:
        """Lose the write buffers, applying *policy*'s storage faults.

        Deterministic given *rng*; with the default policy no *rng* is
        needed and the durable region is untouched.
        """
        self.crashes += 1
        targets = filenames if filenames is not None else self.filenames()
        for filename in targets:
            f = self._file(filename)
            survivor = b""
            if f.pending and rng is not None and rng.random() < policy.keep_pending_prob:
                survivor = bytes(f.pending)
                if rng.random() < policy.torn_write_prob:
                    survivor = survivor[: rng.randint(0, len(survivor) - 1)]
            f.pending.clear()
            f.durable.extend(survivor)
            if (
                f.durable
                and rng is not None
                and rng.random() < policy.lose_durable_tail_prob
            ):
                chop = rng.randint(1, min(64, len(f.durable)))
                del f.durable[-chop:]
            if (
                f.durable
                and rng is not None
                and rng.random() < policy.corrupt_tail_prob
            ):
                span = min(32, len(f.durable))
                pos = len(f.durable) - 1 - rng.randint(0, span - 1)
                f.durable[pos] ^= 0xFF


# ---------------------------------------------------------------------------
# The write-ahead log
# ---------------------------------------------------------------------------


@dataclass
class WalScan:
    """Result of reading back a (possibly damaged) log image."""

    records: list[dict] = field(default_factory=list)
    valid_bytes: int = 0
    total_bytes: int = 0

    @property
    def truncated(self) -> bool:
        """True when a damaged/incomplete tail was cut off."""
        return self.valid_bytes < self.total_bytes


class WriteAheadLog:
    """Append-only framed records over one :class:`StableStore` file."""

    def __init__(self, store: StableStore, filename: str) -> None:
        self.store = store
        self.filename = filename
        self.appends = 0

    def append(self, record: dict) -> None:
        """Frame and append one record to the write buffer; it is
        durable only after an fsync of the file (a journal's
        :meth:`~repro.durability.journal.PartyJournal.commit`)."""
        payload = encode_record(record)
        if len(payload) > _MAX_RECORD:
            raise StorageError(f"WAL record too large ({len(payload)} bytes)")
        frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self.store.append(self.filename, frame)
        self.appends += 1

    @staticmethod
    def scan(image: bytes, blobs: dict[str, bytes] | None = None) -> WalScan:
        """Parse a log image, truncating at the first damaged frame.

        A short header, an absurd length, a CRC mismatch, or an
        undecodable payload all end the scan *cleanly*: every record
        before the damage is returned, the damage itself is reported
        via :attr:`WalScan.truncated` — never an exception.  Blob
        references resolve through *blobs* (see :func:`decode_record`).
        """
        scan = WalScan(total_bytes=len(image))
        offset = 0
        while offset + _FRAME_HEADER.size <= len(image):
            length, crc = _FRAME_HEADER.unpack_from(image, offset)
            start = offset + _FRAME_HEADER.size
            end = start + length
            if length > _MAX_RECORD or end > len(image):
                break
            payload = image[start:end]
            if zlib.crc32(payload) != crc:
                break
            try:
                record = decode_record(payload, blobs)
            except Exception:
                break
            scan.records.append(record)
            offset = end
            scan.valid_bytes = offset
        return scan

    def durable_scan(self, blobs: dict[str, bytes] | None = None) -> WalScan:
        """Records that would survive a crash right now."""
        return self.scan(self.store.durable_bytes(self.filename), blobs)

    def records(self) -> Iterator[dict]:
        """All records visible to the running process."""
        return iter(self.scan(self.store.volatile_view(self.filename)).records)


# ---------------------------------------------------------------------------
# The blob segment
# ---------------------------------------------------------------------------


class BlobSegment:
    """Write-once, content-addressed payload frames beside a WAL.

    Each frame is ``>I length, 32-byte SHA-256, raw bytes``.
    :meth:`ref` appends it to the write buffer; the journal's commit
    fsyncs the segment before the log, so a frame is durable before
    any record that refers to it.  A payload already written is not
    written again: a verified download of an uploaded payload, or a
    snapshot re-listing stored blobs, costs a reference only.
    """

    def __init__(self, store: StableStore, filename: str) -> None:
        self.store = store
        self.filename = filename
        # Hex digests of the frames in the segment as this process
        # knows it: appended since start-up, or intact after a crash.
        self._written: set[str] = set()
        # payload -> hex SHA-256, so a payload named once is not
        # re-hashed by every snapshot that lists it again.  It keeps
        # each payload alive until the next crash, as the segment does.
        self._digests: dict[bytes, str] = {}
        # Whether frames were appended since the last fsync.
        self.unsynced = False

    def note_digest(self, data: bytes, sha256: bytes) -> None:
        """Record that *sha256* is the SHA-256 of *data* (a hash the
        caller just computed over exactly these bytes)."""
        self._digests[data] = sha256.hex()

    def ref(self, data: bytes) -> str:
        """The hex SHA-256 naming *data*, its frame appended unless the
        segment already holds it."""
        name = self._digests.get(data)
        if name is None:
            name = digest("sha256", data).hex()
            self._digests[data] = name
        if name not in self._written:
            self.store.append(
                self.filename,
                _BLOB_HEADER.pack(len(data)) + bytes.fromhex(name) + data,
            )
            self.unsynced = True
            self._written.add(name)
        return name

    def sync(self) -> None:
        """Make the appended frames durable (no fsync when none are new)."""
        if self.unsynced:
            self.store.fsync(self.filename)
            self.unsynced = False

    @staticmethod
    def scan(image: bytes) -> tuple[dict[str, bytes], int]:
        """Every intact blob of a segment image, and where framing ends.

        Each frame's bytes are re-hashed; one that does not match its
        digest is skipped, never returned.  The scan stops at a frame
        that overruns the image (a torn or chopped tail).
        """
        blobs: dict[str, bytes] = {}
        offset = 0
        head = _BLOB_HEADER.size + _DIGEST_SIZE
        while offset + head <= len(image):
            (length,) = _BLOB_HEADER.unpack_from(image, offset)
            start = offset + head
            end = start + length
            if end > len(image):
                break
            name = image[offset + _BLOB_HEADER.size : start].hex()
            data = image[start:end]
            if digest("sha256", data).hex() == name:
                blobs.setdefault(name, data)
            offset = end
        return blobs, offset

    def durable_blobs(self) -> dict[str, bytes]:
        """Intact blobs that would survive a crash right now."""
        return self.scan(self.store.durable_bytes(self.filename))[0]

    def restart(self) -> None:
        """Start over from the durable image after a crash: trim a torn
        tail so the next frame is parseable, and forget every digest
        whose frame did not survive intact."""
        blobs, end = self.scan(self.store.durable_bytes(self.filename))
        self.store.truncate_durable(self.filename, end)
        self._written = set(blobs)
        self._digests = {}
        self.unsynced = False
