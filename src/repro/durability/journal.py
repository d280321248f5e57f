"""The journal: one party's write-ahead log plus snapshot policy.

:class:`PartyJournal` is the object a :class:`~repro.core.party.TpnrParty`
holds (``party.journal``) and writes every evidence-bearing transition
through **before** acting on it — the WAL discipline.  It owns:

* the party's file in a shared :class:`~repro.durability.wal.StableStore`
  (``<name>.wal``) and its payload segment beside it
  (``<name>.wal.blobs``, a :class:`~repro.durability.wal.BlobSegment`):
  every payload field of a record or snapshot is written there once and
  the log carries its SHA-256 instead.  Payload fields are found by
  record shape, not by a walk: a record's own top-level bytes ``data``
  (``client.upload``, ``client.download.result``, ``provider.blob``),
  and the ``data`` of each ``uploads``/``downloads``/``blobs`` entry of
  a snapshot,
* the commit points: :meth:`log` only appends.  The records a
  handled event (a delivery, a timer, a crash or recovery window) or a
  top-level call logs become durable in one :meth:`commit` when it
  returns — the blob segment is fsynced first, then the WAL.  A crash
  window opens only between two events, so no crash can find a
  handler's records half-committed; the frames on disk are those a
  record-at-a-time journal writes.  A write made outside every commit
  point (a direct call on the journal) commits at once,
* the snapshot cadence (every :data:`SNAPSHOT_INTERVAL` records a
  :class:`~repro.durability.checkpoint.PartyState` snapshot is written
  *before* the triggering record).  A snapshot carries only what
  changed since the journal's previous one (its *base*): evidence
  after the archive position the base reached, and no stored object
  whose store mark is unchanged.  With no base — the first snapshot,
  and the first after every :meth:`crash` — it is full, the delta
  against the empty state.  Snapshots do not bound replay work:
  recovery reads and folds every record since the WAL began
  (:func:`~repro.durability.checkpoint.rebuild` restarts its state at
  each full snapshot but still reads the records before it).  What a
  snapshot chain gives is a state that rebuilds from the snapshots
  alone, every delta carrying all that changed,
* the crash fault policy applied to both files when the process dies
  (:meth:`crash`).

The convenience loggers (:meth:`log_send` … :meth:`log_txn`) define the
record vocabulary :meth:`PartyState.apply_record` understands; roles
append their own ``client.*`` / ``provider.*`` / ``ttp.*`` records via
the generic :meth:`log`.
"""

from __future__ import annotations

from ..crypto.drbg import HmacDrbg
from .checkpoint import (
    PartyState,
    capture_state,
    evidence_to_dict,
    rebuild,
    txn_to_dict,
)
from .wal import (
    BLOB_TAG,
    HONEST_DISK,
    BlobSegment,
    CrashFaultPolicy,
    StableStore,
    WalScan,
    WriteAheadLog,
)

__all__ = ["PartyJournal"]

#: Records between two snapshots.
SNAPSHOT_INTERVAL = 48
#: The snapshot maps whose entries carry a payload ``data`` field.
_PAYLOAD_MAPS = frozenset({"uploads", "downloads", "blobs"})


class PartyJournal:
    """Durable journal for one party, over one stable-store file."""

    def __init__(
        self,
        store: StableStore,
        filename: str,
        role: str,
        crash_policy: CrashFaultPolicy = HONEST_DISK,
        fault_rng: HmacDrbg | None = None,
    ) -> None:
        self.wal = WriteAheadLog(store, filename)
        self.blobs = BlobSegment(store, f"{filename}.blobs")
        self.role = role
        self.snapshot_interval = SNAPSHOT_INTERVAL
        self.crash_policy = crash_policy
        self.fault_rng = fault_rng
        self._party = None
        self._since_snapshot = 0
        # The state the previous snapshot recorded, and the evidence
        # archive it was captured from; the next snapshot is the delta
        # against it (None: the next one is full).
        self._base = None
        self._base_archive = None
        self.records_logged = 0
        # Commit points open on this journal (nested calls count once);
        # records logged while one is open wait for it to return.
        self._open = 0
        self._uncommitted = False
        self.snapshots_written = 0
        self.crashes = 0
        # Whether the last crash cut a damaged WAL tail (recovery
        # reports it; the cut itself leaves no trace in the file).
        self.tail_cut = False
        # Incremental record of every evidence key logged so far, each
        # durable once its commit point returned; with an honest disk
        # this equals the evidence a scan of the durable prefix
        # rebuilds (a lying disk makes them differ — which is exactly
        # what the durability audit must notice).
        self.acked_evidence: set[tuple[str, bytes]] = set()

    def bind(self, party) -> None:
        self._party = party

    def _now(self) -> float | None:
        """The bound party's sim time, or None for an unbound journal."""
        party = self._party
        if party is None:
            return None
        return party.now

    # -- writing ------------------------------------------------------------

    def committed(self, call, *args, **kwargs):
        """Run *call* as a commit point: the records it logs become
        durable in one :meth:`commit` when it returns — or, when it
        runs inside another commit point, when that one returns."""
        self._open += 1
        try:
            return call(*args, **kwargs)
        finally:
            self._open -= 1
            if not self._open:
                self.commit()

    def commit(self) -> None:
        """Make every record appended since the last commit durable:
        the blob segment first, so a durable record never refers to a
        frame that is not."""
        if self._uncommitted:
            self.blobs.sync()
            self.wal.store.fsync(self.wal.filename)
            self._uncommitted = False

    def log(self, record_type: str, **fields) -> None:
        """Append one record (snapshotting first if due); it is durable
        when the enclosing commit point returns.

        The snapshot goes *before* the triggering record: a snapshot
        reflects completed effects of everything already logged, and
        the new record replays idempotently on top of it.
        """
        if (
            self._party is not None
            and self._since_snapshot >= self.snapshot_interval
        ):
            self.write_snapshot()
        # Stamp the sim time so forensic reconstruction can place the
        # record on a cross-surface timeline.  Replay ignores unknown
        # keys, so pre-stamp WALs and stamped WALs interoperate.
        at = self._now()
        if at is not None and "at" not in fields:
            fields["at"] = at
        data = fields.get("data")
        if isinstance(data, bytes):
            fields["data"] = {BLOB_TAG: self.blobs.ref(data)}
        self.wal.append({"type": record_type, **fields})
        self._uncommitted = True
        self.records_logged += 1
        self._since_snapshot += 1
        party = self._party
        if party is not None:
            obs = party.obs
            if obs.enabled:
                obs.metrics.counter(
                    "wal.records", party=party.name, type=record_type
                ).inc()
        if not self._open:
            self.commit()

    def write_snapshot(self) -> None:
        party = self._party
        base = self._base
        if self._base_archive is not party.evidence_store:
            base = None  # a restored archive: start a new chain
        state = capture_state(party, self.role, base)
        snapshot = state.to_dict(base)
        ref = self.blobs.ref
        for name, entries in snapshot["role_state"].items():
            if name not in _PAYLOAD_MAPS:
                continue
            # The delta map is the snapshot's own; its entries are the
            # state's, which the next snapshot takes as its base.
            for key, entry in entries.items():
                if entry is not None and isinstance(entry["data"], bytes):
                    entries[key] = {**entry, "data": {BLOB_TAG: ref(entry["data"])}}
        record = {"type": "snapshot", "state": snapshot}
        if base is not None:
            record["delta"] = True
        self.wal.append(record)
        self._uncommitted = True
        self._base, self._base_archive = state, party.evidence_store
        self.snapshots_written += 1
        self._since_snapshot = 0
        obs = party.obs
        if obs.enabled:
            obs.metrics.counter("wal.snapshots", party=party.name).inc()
        if not self._open:
            self.commit()

    # -- the record vocabulary ----------------------------------------------

    def log_send(self, header) -> None:
        self.log(
            "send",
            peer=header.recipient_id,
            seq=header.sequence_number,
            txn=header.transaction_id,
        )

    def log_recv(self, header) -> None:
        self.log(
            "recv",
            peer=header.sender_id,
            seq=header.sequence_number,
            nonce=header.nonce,
            txn=header.transaction_id,
        )

    def log_evidence(self, evidence) -> None:
        self.log("evidence", **evidence_to_dict(evidence))
        self.acked_evidence.add(
            (evidence.signer, evidence.header.to_signed_bytes())
        )

    def log_txn(self, record) -> None:
        self.log("txn", **txn_to_dict(record))

    # -- crashing and reading back ------------------------------------------

    def crash(self) -> None:
        """The process died: lose both files' write buffers (per the
        journal's fault policy), then restart both files from what
        survived of them.  The WAL is cut to its last intact frame, so
        a torn tail never hides the records appended after recovery."""
        wal = self.wal
        wal.store.crash(
            self.crash_policy,
            rng=self.fault_rng,
            filenames=[wal.filename, self.blobs.filename],
        )
        self.blobs.restart()
        self._uncommitted = False
        self._base = self._base_archive = None
        scan = wal.durable_scan()
        wal.store.truncate_durable(wal.filename, scan.valid_bytes)
        self.tail_cut = scan.truncated
        self.crashes += 1

    def durable_scan(self) -> WalScan:
        """The durable records, payload references resolved against the
        segment's intact blobs (``None`` where none is intact)."""
        return self.wal.durable_scan(self.blobs.durable_blobs())

    def durable_state(self) -> tuple[PartyState, WalScan, int]:
        """Rebuild the state the durable prefix describes.

        Returns ``(state, scan, snapshots_seen)``.  A payload whose blob
        did not survive intact comes back as ``None``; later records are
        unaffected.
        """
        scan = self.durable_scan()
        state, snapshots = rebuild(scan.records, self.role)
        return state, scan, snapshots
