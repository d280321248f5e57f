"""Group commit: a party's records become durable when the handled event
or the top-level call that logged them returns, and every byte on the
stable store is the one the record-at-a-time journal wrote."""

import hashlib
import random

import pytest

from repro.core.arbitrator import Verdict
from repro.core.protocol import dispute_tampering, make_deployment
from repro.core.transaction import TxStatus
from repro.durability import journal as journal_module
from repro.durability.checkpoint import (
    PartyState,
    _evidence_key,
    capture_state,
    evidence_from_dict,
    evidence_to_dict,
)
from repro.durability.recovery import recover
from repro.durability.wal import StableStore
from repro.net.events import Simulator
from repro.net.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    generate_amnesia_plans,
)
from repro.replication.store import ReplicatedStore, attach_replication

CONTAINER = "tpnr-data"


def withhold(dep, kind):
    """From now on the network loses every message of *kind*."""
    injector = FaultInjector(FaultPlan(
        name=f"withhold-{kind}",
        rules=(FaultRule(action=FaultAction.DROP, kind=kind, count=99),),
    ))
    dep.network.install_adversary(injector)
    injector.reset(epoch=dep.sim.now)


def unsynced(dep) -> dict[str, int]:
    """Bytes each stable file holds beyond its durable region."""
    stable = dep.stable
    return {
        name: len(stable.volatile_view(name)) - len(stable.durable_bytes(name))
        for name in stable.filenames()
        if len(stable.volatile_view(name)) != len(stable.durable_bytes(name))
    }


def pinned_run(after_call=lambda dep: None, watched=None):
    """One fixed durable, replicated run with explicit transaction ids:
    uploads and downloads, a coordinator tamper and the dispute it
    loses, a blackmail claim, an abort, a TTP resolve, and an amnesia
    crash of client and provider with recovery.  *after_call* runs
    after every top-level call; the deployment joins *watched*."""
    dep = make_deployment(seed=b"stable-pin", durable=True)
    if watched is not None:
        watched.append(dep)
    store = attach_replication(dep, ReplicatedStore(seed=b"stable-pin/replicas"))
    client, provider = dep.client, dep.provider
    rng = random.Random("stable-pin")

    def upload(txn, data, **kwargs):
        client.upload(provider.name, data, transaction_id=txn, **kwargs)
        after_call(dep)
        dep.run()
        return client.transactions[txn].status

    def download(txn):
        client.download(txn)
        after_call(dep)
        dep.run()
        return client.downloads[txn]

    for i in range(4):
        assert upload(f"PIN-{i}", rng.randbytes(700 + 300 * i)) is TxStatus.COMPLETED
        assert download(f"PIN-{i}").verified
    store.overwrite_raw(CONTAINER, "PIN-1", data=b"forged bytes " * 9)
    assert download("PIN-1").tampering_detected
    assert dispute_tampering(dep, "PIN-1").verdict is Verdict.PROVIDER_FAULT
    assert dispute_tampering(dep, "PIN-2").verdict is Verdict.CLAIM_REJECTED
    first = store.read_order(CONTAINER, "PIN-3")[0]
    store.tamper_replica(first, CONTAINER, "PIN-3", b"rotten replica " * 5)
    assert download("PIN-3").verified

    withhold(dep, "tpnr.upload.receipt")
    client.upload(provider.name, b"abort me " * 30, auto_resolve=False,
                  transaction_id="PIN-ABORT")
    after_call(dep)
    dep.sim.schedule(client.policy.response_timeout / 2,
                     lambda: client.abort("PIN-ABORT"))
    dep.run()
    assert client.transactions["PIN-ABORT"].status is TxStatus.ABORTED
    assert upload("PIN-RESOLVE", b"resolve me " * 30) is TxStatus.RESOLVED
    dep.network.remove_adversary()

    for party in (client, provider):
        party.begin_crash(amnesia=True)
        recover(party)
        after_call(dep)
    dep.run()
    assert upload("PIN-4", rng.randbytes(900)) is TxStatus.COMPLETED
    assert download("PIN-4").verified
    assert download("PIN-0").verified
    dep.settle_batches()
    after_call(dep)
    return dep


#: SHA-256 of every stable-store file after :func:`pinned_run`, first
#: computed with the record-at-a-time journal (one encode and one fsync
#: per record) that group commit replaced.  The three logs were re-pinned
#: when RSA keys came to have three primes, and again when keygen came
#: to prove its primes with Pocklington certificates: their evidence
#: records carry RSA signatures, which moved with every key byte.  The blob
#: segments hold payloads only, and :func:`delta_run`'s batched evidence
#: carries no signature, so neither moved.
PINNED_FILES = {
    "alice.wal": "f9a90f7558c9387383a63a274859fe1a30015df2e17a200cb00cb010135c549f",
    "alice.wal.blobs": "1eff7d670eb5cc1e4c9a207df2bfde0bb9b759a65914b30d5684c5b1f920cff7",
    "bob.wal": "025b96381c90fe385c5adbbb5f5341283476d8820462a81801af42b941c163e2",
    "bob.wal.blobs": "1eff7d670eb5cc1e4c9a207df2bfde0bb9b759a65914b30d5684c5b1f920cff7",
    "ttp.wal": "31dd485d98efb334743557b2ff8679063c544bdfcca8cd74a7783a26e699f6ac",
}


def delta_run():
    """A longer fixed durable, replicated, batched run, without crashes,
    so each journal writes delta snapshots: 24 uploads, each read back,
    every fifth rewritten by the coordinator first."""
    dep = make_deployment(seed=b"stable-pin/deltas", durable=True, batch_size=4)
    store = attach_replication(dep, ReplicatedStore(seed=b"stable-pin/deltas/replicas"))
    rng = random.Random("stable-pin/deltas")
    for i in range(24):
        txn = f"DELTA-{i}"
        dep.client.upload(dep.provider.name, rng.randbytes(200 + 40 * i), transaction_id=txn)
        dep.run()
        if i % 5 == 2:
            store.overwrite_raw(CONTAINER, txn, data=b"forged " * 9)
        dep.client.download(txn)
        dep.run()
    dep.settle_batches()
    return dep


#: SHA-256 of every stable-store file after :func:`delta_run`, computed
#: with the journal that found payload fields by walking every record.
PINNED_DELTA_FILES = {
    "alice.wal": "deea04d0e42cfa678adcdcf2bcb0aad917256bca314235626aa2b0b100bd7c2f",
    "alice.wal.blobs": "3c6dfa6bd7ce331265845712844fc501be174c86021f83f75930f7912b8a9d51",
    "bob.wal": "59e1d7c8920aa1742ca33edb0e8535857aeee6c8572d0f2e595dd957f84a2f01",
    "bob.wal.blobs": "852b1843877f137d802cf7b57157cd291a6282e0cd6649a669c29ef503f50512",
}


def file_digests(dep) -> dict[str, str]:
    return {name: hashlib.sha256(dep.stable.durable_bytes(name)).hexdigest()
            for name in dep.stable.filenames()}


class TestStableBytesUnchanged:
    def test_every_file_matches_the_pinned_digest(self):
        dep = pinned_run()
        assert unsynced(dep) == {}
        assert file_digests(dep) == PINNED_FILES

    def test_delta_snapshots_match_the_pinned_digest(self):
        """A snapshot's payload entries are the captured state's, and
        the next snapshot diffs against that state: swapping them in
        place would re-emit unchanged entries in every later delta."""
        dep = delta_run()
        assert (dep.client.journal.snapshots_written,
                dep.provider.journal.snapshots_written) == (5, 5)
        assert file_digests(dep) == PINNED_DELTA_FILES


@pytest.fixture
def checked_steps(monkeypatch):
    """Check after every Simulator.step that no durable deployment's
    stable store holds unsynced bytes; returns the list of failures."""
    failures = []
    watched = []
    step = Simulator.step

    def checked(sim):
        ran = step(sim)
        for dep in watched:
            if dep.sim is sim and unsynced(dep):
                failures.append((sim.now, unsynced(dep)))
        return ran

    monkeypatch.setattr(Simulator, "step", checked)
    return watched, failures


class TestNothingUnsyncedBetweenEvents:
    def test_after_every_step_and_top_level_call(self, checked_steps):
        watched, failures = checked_steps
        calls = []
        pinned_run(lambda dep: calls.append(unsynced(dep)), watched)
        assert failures == []
        assert calls and all(c == {} for c in calls)

    @pytest.mark.parametrize("index", range(12))
    def test_under_amnesia_plans(self, checked_steps, index):
        """CR1's plans: crash windows open and close between events, so
        a crash never finds a half-committed handler."""
        from repro.core.protocol import run_session

        watched, failures = checked_steps
        plan = generate_amnesia_plans(b"exp/cr1", 12)[index]
        dep = make_deployment(seed=b"group-commit/cr1", durable=True)
        watched.append(dep)
        injector = FaultInjector(plan)
        dep.network.install_adversary(injector)
        injector.reset(epoch=dep.sim.now)
        run_session(dep, b"amnesia payload " * 16)
        assert injector.amnesia_crashes >= 1
        assert failures == []
        assert unsynced(dep) == {}


class TestOneFsyncPerHandledEvent:
    def test_no_file_fsynced_twice_in_one_commit_point(self, monkeypatch):
        """A handled event or a top-level call commits once: no file is
        fsynced twice inside one Simulator.step or one top-level call."""
        mark = [0]
        synced = []
        step = Simulator.step
        fsync = StableStore.fsync

        def marked(sim):
            mark[0] += 1
            try:
                return step(sim)
            finally:
                mark[0] += 1

        def recorded(store, filename):
            synced.append((mark[0], filename))
            return fsync(store, filename)

        def after_call(dep):
            mark[0] += 1

        monkeypatch.setattr(Simulator, "step", marked)
        monkeypatch.setattr(StableStore, "fsync", recorded)
        dep = pinned_run(after_call)
        assert synced and len(synced) == len(set(synced)) == dep.stable.fsyncs


def dict_keyed(state, party, base):
    """*state* with its evidence captured as before captures keyed on
    the live objects: each piece deduplicated on the key rebuilt from
    its dict (:func:`_evidence_key`, what replay still uses)."""
    oracle = PartyState(state.role)
    oracle.transactions, oracle.peers = state.transactions, state.peers
    oracle.role_state = state.role_state
    for evidence in party.evidence_store.archived_since(base.evidence_cursor if base else 0):
        ev_dict = evidence_to_dict(evidence)
        key = _evidence_key(ev_dict)
        if key not in oracle._evidence_keys:
            oracle._evidence_keys.add(key)
            oracle.evidence.append(ev_dict)
    return oracle


class TestEvidenceDedupOnLiveKeys:
    def test_every_snapshot_of_the_pinned_run(self, monkeypatch):
        compared = []

        def checked(party, role, base=None):
            state = capture_state(party, role, base)
            assert state.to_dict(base) == dict_keyed(state, party, base).to_dict(base)
            compared.append(len(state.evidence))
            return state

        monkeypatch.setattr(journal_module, "capture_state", checked)
        pinned_run()
        assert len(compared) == 4 and sum(compared) > 0

    def test_evidence_archived_twice(self):
        from repro.core.protocol import run_session

        dep = make_deployment(seed=b"dedup-oracle")
        run_session(dep, b"archived twice " * 8)
        client = dep.client
        archive = client.evidence_store
        first = next(archive.all_entries())
        assert not archive.add(first)  # the store refuses the piece again
        # An archive listing a copy of it anyway must still yield it once.
        archive._archive.append(evidence_from_dict(evidence_to_dict(first)))
        state = capture_state(client, "client")
        assert len(state.evidence) == len(archive) - 1
        assert state.to_dict() == dict_keyed(state, client, None).to_dict()
