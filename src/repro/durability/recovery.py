"""The recovery driver: rebuild a party from its durable prefix.

:func:`recover` is what "the process restarts" means in this
reproduction.  It scans the party's WAL (truncating at any damaged
tail), folds snapshot + records into a
:class:`~repro.durability.checkpoint.PartyState`, overwrites the
party's wiped in-memory state, and then makes the *liveness* decisions
persistence alone cannot: every in-flight transaction is either
**resumed** (re-send with fresh header, re-armed timers) or
**deterministically escalated** to Abort/Resolve/FAILED — a restarted
party must never sit on a PENDING transaction with no timer armed, or
PR 1's no-run-hangs guarantee dies at the first reboot.

The decision table for a recovered client:

==========  ===========================  =================================
status      recovered context            action
==========  ===========================  =================================
RESOLVING   —                            re-send the Resolve request
PENDING     abort was in flight          re-send the Abort
PENDING     payload survived in the WAL  re-send the upload
PENDING     payload lost, TTP known      escalate to Resolve
PENDING     payload lost, no TTP         finish FAILED (documented loss)
==========  ===========================  =================================

A recovered TTP re-opens every pending resolve (fresh query +
timeout); a recovered provider is purely reactive, so restoring its
state is the whole job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.party import commit_point
from ..core.transaction import TxStatus
from .checkpoint import PartyState, apply_state

if TYPE_CHECKING:  # pragma: no cover
    from ..core.party import TpnrParty

__all__ = ["RecoveryReport", "recover"]


@dataclass
class RecoveryReport:
    """What one :func:`recover` call found and did."""

    party: str
    role: str
    records_replayed: int = 0
    snapshots_seen: int = 0
    tail_truncated: bool = False
    transactions: int = 0
    evidence_restored: int = 0
    resumed: int = 0
    escalated: int = 0
    actions: list[str] = field(default_factory=list)


@commit_point
def recover(party: "TpnrParty") -> RecoveryReport:
    """Rebuild *party* from its journal's durable prefix, then re-send or
    escalate its in-flight work as documented above.  A commit point:
    what recovery logs is durable when it returns."""
    journal = party.journal
    role = journal.role if journal is not None else "unknown"
    report = RecoveryReport(party=party.name, role=role)
    party.crashed = False
    if journal is None:
        # Amnesia with no journal: nothing to restore.  The party runs
        # on from a blank slate; the campaign audit is what notices.
        party.recoveries += 1
        return report
    state, scan, snapshots = journal.durable_state()
    report.records_replayed = len(scan.records)
    report.snapshots_seen = snapshots
    report.tail_truncated = scan.truncated or journal.tail_cut
    apply_state(party, state)
    report.transactions = len(party.transactions)
    report.evidence_restored = len(party.evidence_store)
    party.recoveries += 1
    obs = party.obs
    spans = {}
    if obs.enabled:
        # One recovery span per restored in-flight transaction, parented
        # under that transaction's root — the tracer lives on the
        # network, so the tree survived the amnesia wipe that just
        # destroyed the party's own state.  Terminal transactions are
        # restored too but get no span: across a long campaign every
        # restart would otherwise re-annotate every historical trace.
        for txn in sorted(party.transactions):
            if party.transactions[txn].status in (
                TxStatus.PENDING,
                TxStatus.RESOLVING,
            ) and obs.tracer.root(txn) is not None:
                spans[txn] = obs.tracer.start(
                    txn, f"recovery.{role}",
                    party=party.name,
                    records_replayed=report.records_replayed,
                    snapshots=report.snapshots_seen,
                    tail_truncated=report.tail_truncated,
                )
    if role == "client":
        _resume_client(party, report)
    elif role == "ttp":
        _resume_ttp(party, state, report)
    # provider: reactive role; restored state is the whole job.
    if obs.enabled:
        for action in report.actions:
            # Actions read "<what>: <transaction id>"; annotate the span
            # of the transaction they acted on.
            what, _, txn = action.rpartition(": ")
            span = spans.get(txn)
            if span is not None:
                span.event(party.now, f"recovery:{what}")
        for span in spans.values():
            obs.tracer.finish(span, status="ok")
        obs.metrics.counter("recovery.runs", role=role).inc()
        obs.metrics.counter("recovery.resumed", role=role).inc(report.resumed)
        obs.metrics.counter("recovery.escalated", role=role).inc(report.escalated)
        obs.metrics.histogram(
            "recovery.wal_replay_records",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        ).observe(report.records_replayed)
    return report


# ---------------------------------------------------------------------------
# Role-specific resume/escalate
# ---------------------------------------------------------------------------


def _resume_client(party, report: RecoveryReport) -> None:
    for transaction_id in sorted(party.transactions):
        record = party.transactions[transaction_id]
        handle = party.uploads.get(transaction_id)
        if record.status is TxStatus.RESOLVING:
            party.start_resolve(transaction_id, report="resumed after crash recovery")
            report.resumed += 1
            report.actions.append(f"resolve resumed: {transaction_id}")
        elif record.status is TxStatus.PENDING:
            if handle is not None and handle.aborting:
                party.abort(transaction_id)
                report.resumed += 1
                report.actions.append(f"abort re-sent: {transaction_id}")
            elif handle is not None and handle.data is not None:
                party.resume_upload(transaction_id)
                report.resumed += 1
                report.actions.append(f"upload re-sent: {transaction_id}")
            elif handle is not None and handle.auto_resolve and party.ttp_name:
                # The payload bytes did not survive; the NRO may have
                # landed at the provider, so ask the TTP rather than
                # silently forgetting the session.
                party.start_resolve(
                    transaction_id,
                    report="crash recovery: upload payload not recoverable",
                )
                report.escalated += 1
                report.actions.append(f"upload escalated to resolve: {transaction_id}")
            else:
                party.finish_txn(
                    record, TxStatus.FAILED, "crash recovery: cannot resume upload"
                )
                report.escalated += 1
                report.actions.append(f"upload failed at recovery: {transaction_id}")
    for transaction_id in sorted(party.downloads):
        result = party.downloads[transaction_id]
        unfinished = (
            result.data is None and not result.detail and not result.verified
        )
        if unfinished and transaction_id in party.uploads:
            party.download(transaction_id)
            report.resumed += 1
            report.actions.append(f"download re-requested: {transaction_id}")


def _resume_ttp(party, state: PartyState, report: RecoveryReport) -> None:
    for transaction_id in sorted(state.role_state.get("pending", {})):
        info = state.role_state["pending"][transaction_id]
        party.reopen_resolve(
            transaction_id,
            requester=info["requester"],
            counterparty=info["counterparty"],
            report=info["report"],
            data_hash=info["data_hash"],
        )
        report.resumed += 1
        report.actions.append(f"resolve query re-armed: {transaction_id}")
