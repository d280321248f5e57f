"""Transaction state, evidence stores, and anti-replay bookkeeping.

Each TPNR role keeps a :class:`TransactionRecord` per transaction ID
and a :class:`PeerState` per counterparty carrying the monotonically
increasing sequence number ("The sequence number increases one by
one") and the set of seen nonces.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..errors import ProtocolError, ReplayError
from .evidence import OpenedEvidence

__all__ = [
    "TxStatus",
    "TransactionRecord",
    "PeerState",
    "EvidenceStore",
    "new_transaction_id",
]

_txn_counter = itertools.count(1)


def new_transaction_id(prefix: str = "TXN") -> str:
    """Process-unique transaction identifier."""
    return f"{prefix}-{next(_txn_counter):08d}"


class TxStatus(enum.Enum):
    """Lifecycle of one transaction as a party sees it."""

    PENDING = "pending"
    COMPLETED = "completed"
    ABORTED = "aborted"
    RESOLVING = "resolving"
    RESOLVED = "resolved"
    FAILED = "failed"


@dataclass
class TransactionRecord:
    """One party's view of one transaction."""

    transaction_id: str
    role: str  # "client" | "provider" | "ttp"
    peer: str
    status: TxStatus = TxStatus.PENDING
    data_hash: bytes = b""
    data_size: int = 0
    started_at: float = 0.0
    finished_at: float | None = None
    detail: str = ""

    def finish(self, status: TxStatus, at_time: float, detail: str = "") -> None:
        if self.status not in (TxStatus.PENDING, TxStatus.RESOLVING):
            raise ProtocolError(
                f"transaction {self.transaction_id} already {self.status.value}"
            )
        self.status = status
        self.finished_at = at_time
        if detail:
            self.detail = detail


@dataclass
class PeerState:
    """Anti-replay state for one (us, peer) direction pair."""

    next_send_seq: int = 0
    highest_recv_seq: int = -1
    seen_nonces: set[bytes] = field(default_factory=set)

    def allocate_seq(self) -> int:
        seq = self.next_send_seq
        self.next_send_seq += 1
        return seq

    def check_receive(
        self,
        seq: int,
        nonce: bytes,
        *,
        enforce_sequence: bool = True,
        enforce_nonce: bool = True,
    ) -> None:
        """Validate and consume an inbound (seq, nonce) pair.

        Sequence numbers must strictly increase; nonces must be fresh.
        Raises :class:`ReplayError` on violation (when enforced).
        """
        if enforce_sequence and seq <= self.highest_recv_seq:
            raise ReplayError(
                f"sequence number {seq} not above high-water mark {self.highest_recv_seq}"
            )
        if enforce_nonce and nonce in self.seen_nonces:
            raise ReplayError("nonce reuse detected")
        self.highest_recv_seq = max(self.highest_recv_seq, seq)
        self.seen_nonces.add(nonce)


class EvidenceStore:
    """Per-party archive of opened evidence, keyed by transaction.

    This is what a party brings to the Arbitrator.  Multiple pieces per
    transaction are normal (upload NRO/NRR, download NRR, abort NRR,
    TTP statements...).  The store also keeps the order it archived
    pieces in, so a journal holding a position in it can ask for just
    the pieces archived since (:meth:`archived_since`).
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._by_txn: dict[str, list[OpenedEvidence]] = {}
        self._archive: list[OpenedEvidence] = []
        self._seen: set[tuple[str, bytes]] = set()
        self.duplicates_suppressed = 0

    def add(self, evidence: OpenedEvidence) -> bool:
        """Archive one piece of evidence; returns False for an exact
        duplicate (same signer, same signed header bytes) — duplicate
        deliveries and retransmission races must never double-issue a
        stored piece of evidence."""
        key = (evidence.signer, evidence.header.to_signed_bytes())
        if key in self._seen:
            self.duplicates_suppressed += 1
            return False
        self._seen.add(key)
        self._by_txn.setdefault(evidence.header.transaction_id, []).append(evidence)
        self._archive.append(evidence)
        return True

    def holds(self, evidence: OpenedEvidence) -> bool:
        """True if this exact piece (same signer, same signed header
        bytes) is already archived — i.e. :meth:`add` would dedup it."""
        return (evidence.signer, evidence.header.to_signed_bytes()) in self._seen

    def seen_keys(self) -> set[tuple[str, bytes]]:
        """Identity keys of everything archived (durability audits
        compare these against what the journal says must survive)."""
        return set(self._seen)

    def all_entries(self):
        """Every archived piece, in archive order."""
        yield from self._archive

    def archived_since(self, position: int) -> list[OpenedEvidence]:
        """The pieces archived after the first *position* ones."""
        return self._archive[position:]

    def for_transaction(self, transaction_id: str) -> list[OpenedEvidence]:
        return list(self._by_txn.get(transaction_id, []))

    def latest(self, transaction_id: str, flag=None) -> OpenedEvidence | None:
        """Most recent evidence for a transaction, optionally by flag."""
        candidates = self._by_txn.get(transaction_id, [])
        if flag is not None:
            candidates = [e for e in candidates if e.header.flag == flag]
        return candidates[-1] if candidates else None

    def transactions(self) -> list[str]:
        return sorted(self._by_txn)

    def __len__(self) -> int:
        return len(self._archive)
