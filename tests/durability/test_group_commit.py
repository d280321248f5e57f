"""Group commit: a party's records become durable when the handled event
or the top-level call that logged them returns, and every byte on the
stable store is the one the record-at-a-time journal wrote."""

import hashlib
import random

import pytest

from repro.core.arbitrator import Verdict
from repro.core.protocol import dispute_tampering, make_deployment
from repro.core.transaction import TxStatus
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


#: SHA-256 of every stable-store file after :func:`pinned_run`, computed
#: with the record-at-a-time journal (one encode and one fsync per
#: record) that group commit replaced.
PINNED_FILES = {
    "alice.wal": "f1700cea9963cb29eb23a017ac6fad083d36b46a6049600f80dce97fbcfa6b6c",
    "alice.wal.blobs": "1eff7d670eb5cc1e4c9a207df2bfde0bb9b759a65914b30d5684c5b1f920cff7",
    "bob.wal": "28c0d490f550a7d9ce213a4a963ad03ff088bfdd1b59f57d792de990798c68fe",
    "bob.wal.blobs": "1eff7d670eb5cc1e4c9a207df2bfde0bb9b759a65914b30d5684c5b1f920cff7",
    "ttp.wal": "6c34c6b5e7d10eb4e3b65ab8ffb1d3ff82e35a1332e71c8018394e7642adb9dc",
}


class TestStableBytesUnchanged:
    def test_every_file_matches_the_pinned_digest(self):
        dep = pinned_run()
        assert unsynced(dep) == {}
        digests = {name: hashlib.sha256(dep.stable.durable_bytes(name)).hexdigest()
                   for name in dep.stable.filenames()}
        assert digests == PINNED_FILES


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
