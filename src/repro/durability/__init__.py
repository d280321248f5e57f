"""Crash-recovery subsystem: durable party state for TPNR roles.

PR 1 made the reproduction survive *message* faults; this package makes
it survive *process* faults.  The pieces, bottom-up:

* :mod:`repro.durability.wal` — a simulated :class:`StableStore`
  (write buffer + fsync + crash with seeded torn-write/partial-fsync
  faults), a length+CRC-framed append-only :class:`WriteAheadLog`
  whose reader truncates at the first damaged frame instead of raising,
  and the :class:`BlobSegment` beside it that holds each payload once,
  named by its SHA-256;
* :mod:`repro.durability.checkpoint` — :class:`PartyState`, the
  snapshot+replay representation of one party's protocol state
  (transactions, anti-replay counters, evidence, role handles), with
  idempotent record application so a replayed prefix is harmless;
* :mod:`repro.durability.journal` — :class:`PartyJournal`, the hook a
  :class:`~repro.core.party.TpnrParty` writes every evidence-bearing
  transition through *before* acting on it, with periodic snapshots;
* :mod:`repro.durability.recovery` — :func:`recover`, which rebuilds a
  party from its last durable prefix, then resumes in-flight
  transactions (re-send + re-arm timers) or deterministically
  escalates them to Abort/Resolve.

The invariant the whole package exists to uphold (and that
:class:`repro.net.faults.CampaignRunner` audits): **no evidence that
was durably acknowledged before a crash is ever missing after
recovery**, and recovered runs still reach a terminal state with no
conflicting evidence.
"""

from .checkpoint import PartyState, apply_state, capture_state
from .journal import PartyJournal
from .recovery import RecoveryReport, recover
from .wal import BlobSegment, CrashFaultPolicy, StableStore, WalScan, WriteAheadLog

__all__ = [
    "BlobSegment",
    "CrashFaultPolicy",
    "StableStore",
    "WalScan",
    "WriteAheadLog",
    "PartyState",
    "capture_state",
    "apply_state",
    "PartyJournal",
    "RecoveryReport",
    "recover",
]
