"""Snapshot + replay representation of one TPNR party's durable state.

:class:`PartyState` is the hinge of the crash-recovery design: it is at
once the *snapshot format* (a periodic ``{"type": "snapshot"}`` WAL
record carries :meth:`PartyState.to_dict`), the *replay accumulator*
(:meth:`PartyState.apply_record` folds every later WAL record in), and
the *restore source* (:func:`apply_state` rebuilds a live
:class:`~repro.core.party.TpnrParty` from it).

Snapshots are **deltas**: ``to_dict(base)`` carries only what changed
since *base*, the state the journal's previous snapshot recorded —
changed or removed keys of each keyed map (a removed key maps to
``None``), additions and removals of each set, and the evidence
archived since.  A full snapshot is the delta against the empty state
(``to_dict()``), and :meth:`PartyState.apply_snapshot` folds either
kind in, so one codec serves both.  :func:`rebuild` restarts at each
full snapshot and folds every later delta and record onto it.

Record application is **idempotent** — sequence counters are folded
with ``max``, nonces and evidence with set union, statuses by
overwrite — so a record that is both reflected in a snapshot and
replayed after it does no harm.  That property is what lets the
journal write snapshots at any record boundary without coordination.

What is deliberately *not* captured: armed timers and retransmission
loops (a restarted process has none — :mod:`repro.durability.recovery`
re-arms or escalates them), the DRBG position (nonce uniqueness is a
harness property), batch inclusion proofs (the ledger supplies them
again), and observability counters (they model the test harness, not
the process, and survive crashes on the live object).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.client import DownloadResult, TpnrClient, UploadHandle
from ..core.evidence import BatchedEvidence, OpenedEvidence
from ..core.messages import Flag, Header
from ..core.transaction import (
    EvidenceStore,
    PeerState,
    TransactionRecord,
    TxStatus,
)
from ..storage.blobstore import BlobStore

if TYPE_CHECKING:  # pragma: no cover
    from ..core.party import TpnrParty

__all__ = [
    "PartyState",
    "capture_state",
    "apply_state",
    "rebuild",
    "header_to_dict",
    "header_from_dict",
    "evidence_to_dict",
    "evidence_from_dict",
]

_BLOB_CONTAINER = "tpnr-data"


# ---------------------------------------------------------------------------
# Field-level codecs
# ---------------------------------------------------------------------------


def header_to_dict(header: Header) -> dict:
    return {
        "flag": header.flag.value,
        "sender": header.sender_id,
        "recipient": header.recipient_id,
        "ttp": header.ttp_id,
        "txn": header.transaction_id,
        "seq": header.sequence_number,
        "nonce": header.nonce,
        "time_limit": header.time_limit,
        "data_hash": header.data_hash,
    }


def header_from_dict(d: dict) -> Header:
    return Header(
        flag=Flag(d["flag"]),
        sender_id=d["sender"],
        recipient_id=d["recipient"],
        ttp_id=d["ttp"],
        transaction_id=d["txn"],
        sequence_number=d["seq"],
        nonce=d["nonce"],
        time_limit=d["time_limit"],
        data_hash=d["data_hash"],
    )


def evidence_to_dict(evidence: OpenedEvidence) -> dict:
    """Batched evidence also carries its ``leaf``; its proof is left to
    the ledger, which holds every sealed batch."""
    d = {
        "signer": evidence.signer,
        "header": header_to_dict(evidence.header),
        "sig_data": evidence.signature_over_data_hash,
        "sig_header": evidence.signature_over_header,
    }
    if isinstance(evidence, BatchedEvidence):
        d["leaf"] = evidence.leaf
    return d


def evidence_from_dict(d: dict) -> OpenedEvidence:
    fields = dict(
        header=header_from_dict(d["header"]),
        signature_over_data_hash=d["sig_data"],
        signature_over_header=d["sig_header"],
        signer=d["signer"],
    )
    if "leaf" in d:
        return BatchedEvidence(leaf=d["leaf"], **fields)
    return OpenedEvidence(**fields)


def txn_to_dict(record: TransactionRecord) -> dict:
    return {
        "transaction_id": record.transaction_id,
        "role": record.role,
        "peer": record.peer,
        "status": record.status.value,
        "data_hash": record.data_hash,
        "data_size": record.data_size,
        "started_at": record.started_at,
        "finished_at": record.finished_at,
        "detail": record.detail,
    }


def txn_from_dict(d: dict) -> TransactionRecord:
    return TransactionRecord(
        transaction_id=d["transaction_id"],
        role=d["role"],
        peer=d["peer"],
        status=TxStatus(d["status"]),
        data_hash=d["data_hash"],
        data_size=d["data_size"],
        started_at=d["started_at"],
        finished_at=d["finished_at"],
        detail=d["detail"],
    )


def _evidence_key(ev_dict: dict) -> tuple[str, bytes]:
    """Same identity the live :class:`EvidenceStore` dedups on."""
    return (ev_dict["signer"], header_from_dict(ev_dict["header"]).to_signed_bytes())


_EVIDENCE_FIELDS = ("signer", "header", "sig_data", "sig_header", "leaf")


# ---------------------------------------------------------------------------
# Delta helpers
# ---------------------------------------------------------------------------


def _map_delta(now: dict, before: dict) -> dict:
    """The entries of *now* that differ from *before*, plus ``None``
    for every key *before* has and *now* has not."""
    delta = {k: v for k, v in now.items() if before.get(k) != v}
    delta.update((k, None) for k in before if k not in now)
    return delta


def _apply_map_delta(target: dict, delta: dict) -> None:
    for k, v in delta.items():
        if v is None:
            target.pop(k, None)
        else:
            target[k] = v.copy()  # replay mutates entries in place


#: The one set-valued role-state entry: the provider's
#: (transaction, requester) pairs whose download was acknowledged.
#: A snapshot lists the pairs added under this name and the pairs
#: removed under ``"unacked"``.
_ACKED = "acked"
_UNACKED = "unacked"


# ---------------------------------------------------------------------------
# The state object
# ---------------------------------------------------------------------------


class PartyState:
    """Snapshot/replay accumulator for one party's protocol state."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.transactions: dict[str, dict] = {}
        self.peers: dict[str, dict] = {}  # name -> {"send", "recv", "nonces": set}
        self.evidence: list[dict] = []
        self._evidence_keys: set[tuple[str, bytes]] = set()
        self.role_state: dict[str, Any] = {}
        # Set by capture_state and never serialized: how many pieces of
        # the live evidence archive this state reflects, and the store
        # mark of each provider blob — what lets the next capture take
        # this state as its base and skip what did not change.
        self.evidence_cursor = 0
        self.blob_marks: dict[tuple[str, str], Any] = {}

    # -- peers ---------------------------------------------------------------

    def _peer(self, name: str) -> dict:
        return self.peers.setdefault(name, {"send": 0, "recv": -1, "nonces": set()})

    def _add_evidence(self, ev_dict: dict) -> None:
        key = _evidence_key(ev_dict)
        if key not in self._evidence_keys:
            self._evidence_keys.add(key)
            self.evidence.append(ev_dict)

    def evidence_keys(self) -> set[tuple[str, bytes]]:
        return set(self._evidence_keys)

    # -- replay --------------------------------------------------------------

    def apply_record(self, record: dict) -> None:
        """Fold one WAL record in; unknown types are ignored (a newer
        writer must not make an older reader's recovery explode)."""
        rtype = record.get("type")
        if rtype == "send":
            peer = self._peer(record["peer"])
            peer["send"] = max(peer["send"], record["seq"] + 1)
        elif rtype == "recv":
            peer = self._peer(record["peer"])
            peer["recv"] = max(peer["recv"], record["seq"])
            peer["nonces"].add(record["nonce"])
        elif rtype == "evidence":
            self._add_evidence(
                {k: record[k] for k in _EVIDENCE_FIELDS if k in record}
            )
        elif rtype == "txn":
            fields = dict(record)
            fields.pop("type")
            fields.pop("at", None)  # the journal's time stamp, not a field
            self.transactions[record["transaction_id"]] = fields
        elif rtype == "client.upload":
            uploads = self.role_state.setdefault("uploads", {})
            uploads[record["txn"]] = {
                "provider": record["provider"],
                "data": record["data"],
                "data_hash": record["data_hash"],
                "data_size": record["data_size"],
                "auto_resolve": record["auto_resolve"],
                "aborting": False,
            }
        elif rtype == "client.abort":
            handle = self.role_state.setdefault("uploads", {}).get(record["txn"])
            if handle is not None:
                handle["aborting"] = True
        elif rtype == "client.download":
            downloads = self.role_state.setdefault("downloads", {})
            downloads[record["txn"]] = {
                "data": None,
                "verified": False,
                "tampering": False,
                "detail": "",
                "flags": [],
            }
        elif rtype == "client.download.result":
            downloads = self.role_state.setdefault("downloads", {})
            downloads[record["txn"]] = {
                "data": record["data"],
                "verified": record["verified"],
                "tampering": record["tampering"],
                "detail": record["detail"],
                "flags": list(record["flags"]),
            }
        elif rtype == "provider.blob":
            blobs = self.role_state.setdefault("blobs", {})
            blobs[record["txn"]] = {
                "container": record["container"],
                "key": record["key"],
                "data": record["data"],
            }
        elif rtype == "provider.grant":
            grants = self.role_state.setdefault("grants", {})
            grantees = grants.setdefault(record["txn"], [])
            if record["grantee"] not in grantees:
                grantees.append(record["grantee"])
        elif rtype == "ttp.pending":
            pending = self.role_state.setdefault("pending", {})
            pending[record["txn"]] = {
                "requester": record["requester"],
                "counterparty": record["counterparty"],
                "report": record["report"],
                "data_hash": record["data_hash"],
            }
        elif rtype == "ttp.done":
            self.role_state.setdefault("pending", {}).pop(record["txn"], None)
        # else: forward-compatible no-op

    def apply_snapshot(self, snap: dict) -> None:
        """Fold one snapshot in — a full one onto an empty state, a
        delta onto the state its base snapshot left."""
        _apply_map_delta(self.transactions, snap["transactions"])
        for name, p in snap["peers"].items():
            if p is None:
                self.peers.pop(name, None)
                continue
            peer = self._peer(name)
            peer["send"] = p["send"]
            peer["recv"] = p["recv"]
            peer["nonces"].update(p["nonces"])
            peer["nonces"].difference_update(p.get("dropped", ()))
        for ev in snap["evidence"]:
            self._add_evidence(dict(ev))
        role_state = snap["role_state"]
        for name, value in role_state.items():
            if name == _ACKED:
                acked = {tuple(pair) for pair in self.role_state.get(_ACKED, [])}
                acked |= {tuple(pair) for pair in value}
                acked -= {tuple(pair) for pair in role_state.get(_UNACKED, [])}
                self.role_state[_ACKED] = sorted(list(pair) for pair in acked)
            elif name != _UNACKED:
                _apply_map_delta(self.role_state.setdefault(name, {}), value)

    # -- serialization -------------------------------------------------------

    def to_dict(self, base: "PartyState | None" = None) -> dict:
        """This state as a snapshot: everything, or with *base* only what
        changed since it.  Evidence is written as this state holds it —
        a capture against *base* holds just what was archived since."""
        if base is None:
            base = PartyState(self.role)
        peers = {}
        for name, p in self.peers.items():
            before = base.peers.get(name)
            if before == p:
                continue
            known = before["nonces"] if before else set()
            peers[name] = {
                "send": p["send"],
                "recv": p["recv"],
                "nonces": sorted(p["nonces"] - known),
            }
            if known - p["nonces"]:
                peers[name]["dropped"] = sorted(known - p["nonces"])
        peers.update((name, None) for name in base.peers if name not in self.peers)
        role_state: dict[str, Any] = {}
        for name, value in self.role_state.items():
            if name == _ACKED:
                now = {tuple(pair) for pair in value}
                before = {tuple(pair) for pair in base.role_state.get(_ACKED, [])}
                role_state[_ACKED] = sorted(list(pair) for pair in now - before)
                if before - now:
                    role_state[_UNACKED] = sorted(list(pair) for pair in before - now)
            else:
                role_state[name] = _map_delta(value, base.role_state.get(name, {}))
        return {
            "role": self.role,
            "transactions": _map_delta(self.transactions, base.transactions),
            "peers": peers,
            "evidence": [dict(e) for e in self.evidence],
            "role_state": role_state,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PartyState":
        state = cls(d["role"])
        state.apply_snapshot(d)
        return state


def rebuild(records: list[dict], role: str) -> tuple[PartyState, int]:
    """Fold a WAL record sequence into the state it describes.

    Returns ``(state, snapshots_seen)``.  Replay restarts from every
    full snapshot, and folds each later delta snapshot and record onto
    it.
    """
    state = PartyState(role)
    snapshots = 0
    for record in records:
        if record.get("type") == "snapshot":
            if not record.get("delta"):
                state = PartyState(role)
            state.apply_snapshot(record["state"])
            snapshots += 1
        else:
            state.apply_record(record)
    return state, snapshots


# ---------------------------------------------------------------------------
# Live party <-> PartyState
# ---------------------------------------------------------------------------


def capture_state(
    party: "TpnrParty", role: str, base: PartyState | None = None
) -> PartyState:
    """Photograph a live party's durable-relevant state.

    *base*, when given, is an earlier capture of the same live party
    (the journal's previous snapshot).  The new capture then holds only
    the evidence archived since *base*, and takes each stored object
    whose store mark is unchanged from *base* instead of reading it.
    """
    state = PartyState(role)
    for txn, record in party.transactions.items():
        state.transactions[txn] = txn_to_dict(record)
    for name, peer in party._peers.items():
        state.peers[name] = {
            "send": peer.next_send_seq,
            "recv": peer.highest_recv_seq,
            "nonces": set(peer.seen_nonces),
        }
    archive = party.evidence_store
    for evidence in archive.archived_since(base.evidence_cursor if base else 0):
        state._add_evidence(evidence_to_dict(evidence))
    state.evidence_cursor = len(archive)
    if role == "client":
        uploads = {}
        for txn, handle in party.uploads.items():
            uploads[txn] = {
                "provider": handle.provider,
                "data": handle.data,
                "data_hash": handle.data_hash,
                "data_size": handle.data_size,
                "auto_resolve": handle.auto_resolve,
                "aborting": handle.aborting,
            }
        downloads = {}
        for txn, result in party.downloads.items():
            downloads[txn] = {
                "data": result.data,
                "verified": result.verified,
                "tampering": result.tampering_detected,
                "detail": result.detail,
                "flags": list(result.evidence_flags),
            }
        state.role_state = {"uploads": uploads, "downloads": downloads}
    elif role == "provider":
        store = party.store
        known = base.role_state.get("blobs", {}) if base else {}
        known_marks = base.blob_marks if base else {}
        blobs = {}
        state.blob_marks = store.object_marks()
        for (container, key), mark in state.blob_marks.items():
            blob = known.get(key)
            if blob is None or known_marks.get((container, key)) != mark:
                blob = {
                    "container": container,
                    "key": key,
                    "data": store.get(container, key).data,
                }
            blobs[key] = blob
        state.role_state = {
            "blobs": blobs,
            "grants": {txn: sorted(names) for txn, names in party.grants.items()},
            _ACKED: sorted(list(pair) for pair in party._download_acked),
        }
    elif role == "ttp":
        pending = {}
        for txn, entry in party._pending.items():
            pending[txn] = {
                "requester": entry.requester,
                "counterparty": entry.counterparty,
                "report": entry.report,
                "data_hash": entry.data_hash,
            }
        state.role_state = {"pending": pending}
    return state


def apply_state(party: "TpnrParty", state: PartyState) -> None:
    """Overwrite a (wiped) party's protocol state from *state*.

    Timers and retransmission loops are NOT re-armed here — that is
    :func:`repro.durability.recovery.recover`'s resume step, which
    needs to make escalation decisions this layer must not.
    """
    party.transactions = {
        txn: txn_from_dict(fields) for txn, fields in state.transactions.items()
    }
    party._peers = {
        name: PeerState(
            next_send_seq=p["send"],
            highest_recv_seq=p["recv"],
            seen_nonces=set(p["nonces"]),
        )
        for name, p in state.peers.items()
    }
    duplicates = party.evidence_store.duplicates_suppressed
    store = EvidenceStore(party.name)
    store.duplicates_suppressed = duplicates
    for ev_dict in state.evidence:
        evidence = evidence_from_dict(ev_dict)
        store.add(evidence)
        if (
            isinstance(evidence, BatchedEvidence)
            and party._resolve_batched(evidence) != "verified"
        ):
            # No sealed batch proves it yet: settlement resolves it, or
            # flags it, as it would have before the crash.
            party._pending_batched.append(evidence)
    party.evidence_store = store
    if state.role == "client":
        _apply_client(party, state)
    elif state.role == "provider":
        _apply_provider(party, state)
    elif state.role == "ttp":
        # Pending resolves are re-opened (fresh query + timers) by the
        # recovery driver; here the slate is just cleaned.
        party._pending = {}


def _apply_client(party: "TpnrClient", state: PartyState) -> None:
    party.uploads = {}
    for txn, h in state.role_state.get("uploads", {}).items():
        party.uploads[txn] = UploadHandle(
            transaction_id=txn,
            provider=h["provider"],
            data_hash=h["data_hash"],
            data_size=h["data_size"],
            auto_resolve=h["auto_resolve"],
            data=h["data"],
            aborting=h["aborting"],
        )
    party.downloads = {}
    for txn, d in state.role_state.get("downloads", {}).items():
        party.downloads[txn] = DownloadResult(
            transaction_id=txn,
            data=d["data"],
            verified=d["verified"],
            tampering_detected=d["tampering"],
            detail=d["detail"],
            evidence_flags=list(d["flags"]),
        )


def _apply_provider(party: "TpnrParty", state: PartyState) -> None:
    party.store = BlobStore(f"{party.name}/store")
    for blob in state.role_state.get("blobs", {}).values():
        # A blob whose segment frame did not survive stays lost: the
        # next download of it fails verification and convicts us.
        if blob["data"] is not None:
            party.store.put(
                blob["container"], blob["key"], blob["data"], at_time=party.now
            )
    party.grants = {
        txn: set(names) for txn, names in state.role_state.get("grants", {}).items()
    }
    party._download_acked = {
        tuple(pair) for pair in state.role_state.get(_ACKED, [])
    }
