"""The journal: one party's write-ahead log plus snapshot policy.

:class:`PartyJournal` is the object a :class:`~repro.core.party.TpnrParty`
holds (``party.journal``) and writes every evidence-bearing transition
through **before** acting on it — the WAL discipline.  It owns:

* the party's file in a shared :class:`~repro.durability.wal.StableStore`
  (``<name>.wal``) and its payload segment beside it
  (``<name>.wal.blobs``, a :class:`~repro.durability.wal.BlobSegment`):
  every payload field of a record or snapshot is written there once and
  the log carries its SHA-256 instead,
* the snapshot cadence (every ``snapshot_interval`` records a
  :class:`~repro.durability.checkpoint.PartyState` snapshot is written
  *before* the triggering record, bounding replay work).  A snapshot
  carries only what changed since the journal's previous one (its
  *base*): evidence after the archive position the base reached, and
  no stored object whose store mark is unchanged.  With no base — the
  first snapshot, and the first after every :meth:`crash` — it is
  full, the delta against the empty state,
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
    header_to_dict,
    rebuild,
    txn_to_dict,
)
from .wal import (
    HONEST_DISK,
    BlobSegment,
    CrashFaultPolicy,
    StableStore,
    WalScan,
    WriteAheadLog,
)

__all__ = ["PartyJournal"]


class PartyJournal:
    """Durable journal for one party, over one stable-store file."""

    def __init__(
        self,
        store: StableStore,
        filename: str,
        role: str,
        snapshot_interval: int = 48,
        crash_policy: CrashFaultPolicy = HONEST_DISK,
        fault_rng: HmacDrbg | None = None,
    ) -> None:
        self.wal = WriteAheadLog(store, filename)
        self.blobs = BlobSegment(store, f"{filename}.blobs")
        self.role = role
        self.snapshot_interval = max(1, snapshot_interval)
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
        self.snapshots_written = 0
        self.crashes = 0
        # Whether the last crash cut a damaged WAL tail (recovery
        # reports it; the cut itself leaves no trace in the file).
        self.tail_cut = False
        # Incremental record of every evidence key fsynced so far; with
        # an honest disk this equals the scan-derived
        # :meth:`durable_evidence_keys` (a lying disk makes them differ
        # — which is exactly what the durability audit must notice).
        self.acked_evidence: set[tuple[str, bytes]] = set()

    def bind(self, party) -> None:
        self._party = party

    def _now(self) -> float | None:
        """The bound party's sim time, or None when unbindable (a
        standalone journal in tests has no network clock)."""
        party = self._party
        if party is None:
            return None
        try:
            return party.now
        except AttributeError:
            return None

    # -- writing ------------------------------------------------------------

    def log(self, record_type: str, **fields) -> None:
        """Durably append one record (snapshotting first if due).

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
        self.wal.append({"type": record_type, **fields}, blobs=self.blobs.ref)
        self.records_logged += 1
        self._since_snapshot += 1
        party = self._party
        if party is not None:
            obs = party.obs
            if obs.enabled:
                obs.metrics.counter(
                    "wal.records", party=party.name, type=record_type
                ).inc()

    def write_snapshot(self) -> None:
        party = self._party
        base = self._base
        if self._base_archive is not party.evidence_store:
            base = None  # a restored archive: start a new chain
        state = capture_state(party, self.role, base)
        record = {"type": "snapshot", "state": state.to_dict(base)}
        if base is not None:
            record["delta"] = True
        self.wal.append(record, blobs=self.blobs.ref)
        self._base, self._base_archive = state, party.evidence_store
        self.snapshots_written += 1
        self._since_snapshot = 0
        obs = party.obs
        if obs.enabled:
            obs.metrics.counter("wal.snapshots", party=party.name).inc()

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

    def durable_evidence_keys(self) -> set[tuple[str, bytes]]:
        """Identity keys of every durably-acknowledged piece of
        evidence — the set the campaign audit checks is never lost."""
        state, _, _ = self.durable_state()
        return state.evidence_keys()
