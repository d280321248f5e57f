"""End-to-end span trees for every TPNR path (ISSUE 3 acceptance).

Every transaction in Normal, Abort, Resolve, and crash-recovery-resume
mode must produce a complete parent-linked span tree plus a non-empty
metrics snapshot; span events must correlate with the wire trace by
``msg_id``; and an unobserved deployment's seat holds nothing to
record into.
"""

import pytest

from repro.core.provider import ProviderBehavior
from repro.core.protocol import make_deployment, run_abort, run_session, run_upload
from repro.net.faults import CrashWindow, FaultInjector, FaultPlan
from repro.obs import NULL_OBS
from repro.obs.exporters import metrics_jsonl, spans_jsonl


def observed_session(seed: bytes = b"obs-e2e/normal"):
    dep = make_deployment(seed=seed, observe=True)
    outcome = run_session(dep, b"observed payload " * 8)
    return dep, outcome


class TestNormalMode:
    def test_tree_is_complete_and_rooted_at_the_transaction(self):
        dep, outcome = observed_session()
        tracer = dep.obs.tracer
        txn = outcome.transaction_id
        assert tracer.tree_complete(txn)
        root = tracer.root(txn)
        assert root.name == "tpnr.transaction"
        assert root.parent_id == 0
        child_names = {s.name for s in tracer.trace(txn) if s.parent_id == root.span_id}
        assert "provider.upload" in child_names

    def test_span_events_correlate_with_wire_trace_msg_ids(self):
        dep, outcome = observed_session()
        trace_ids = {e.msg_id for e in dep.network.trace.events}
        span_msg_ids = {
            ev.msg_id
            for s in dep.obs.tracer.trace(outcome.transaction_id)
            for ev in s.events
            if ev.msg_id
        }
        assert span_msg_ids  # events do carry message correlation
        assert span_msg_ids <= trace_ids

    def test_metrics_snapshot_nonempty_and_clock_stamped(self):
        dep, _ = observed_session()
        snap = dep.obs.metrics.snapshot()
        assert snap
        assert all(m["at"] == dep.sim.now for m in snap)


class TestAbortAndResolveModes:
    def test_abort_tree_complete(self):
        dep = make_deployment(seed=b"obs-e2e/abort", observe=True,
                              behavior=ProviderBehavior(silent_on_upload=True))
        outcome = run_abort(dep, b"abort payload")
        tracer = dep.obs.tracer
        assert tracer.tree_complete(outcome.transaction_id)
        names = {s.name for s in tracer.trace(outcome.transaction_id)}
        assert "client.abort" in names

    def test_resolve_tree_complete_with_ttp_span(self):
        dep = make_deployment(seed=b"obs-e2e/resolve", observe=True,
                              behavior=ProviderBehavior(silent_on_upload=True))
        outcome = run_upload(dep, b"resolve payload")
        tracer = dep.obs.tracer
        assert tracer.tree_complete(outcome.transaction_id)
        names = {s.name for s in tracer.trace(outcome.transaction_id)}
        assert "client.resolve" in names
        assert "ttp.resolve" in names


class TestCrashRecoveryResume:
    def test_recovery_span_joins_the_transaction_tree(self):
        dep = make_deployment(seed=b"obs-e2e/crash", observe=True, durable=True)
        plan = FaultPlan(
            name="obs-amnesia",
            crashes=(CrashWindow("alice", 0.0, 2.0, amnesia=True),),
        )
        injector = FaultInjector(plan)
        dep.network.install_adversary(injector)
        injector.reset(epoch=dep.sim.now)
        outcome = run_upload(dep, b"crash payload")
        dep.network.remove_adversary()
        tracer = dep.obs.tracer
        txn = outcome.transaction_id
        assert tracer.tree_complete(txn)
        recovery = [s for s in tracer.trace(txn) if s.name.startswith("recovery.")]
        assert recovery
        root = tracer.root(txn)
        assert all(s.parent_id == root.span_id for s in recovery)


class TestDisabledByDefault:
    def test_unobserved_deployment_carries_the_null_bundle(self):
        dep = make_deployment(seed=b"obs-e2e/off")
        assert dep.obs is NULL_OBS
        assert dep.obs.enabled is False
        run_session(dep, b"dark payload")
        assert not any(p._obs_spans for p in dep.parties())
        # The seat holds nothing to record into, so a read that forgot
        # the switch raises instead of reading as "no spans".
        with pytest.raises(AttributeError):
            dep.obs.tracer
        with pytest.raises(AttributeError):
            dep.obs.metrics


class TestDeterminism:
    def test_same_seed_same_spans_and_metrics(self):
        # Transaction ids come from each deployment's own counter, so
        # two same-seed deployments are byte-identical, ids included.
        dep_a, out_a = observed_session(b"obs-e2e/det")
        dep_b, out_b = observed_session(b"obs-e2e/det")
        assert out_a.transaction_id == out_b.transaction_id
        assert spans_jsonl(dep_a.obs.tracer) == spans_jsonl(dep_b.obs.tracer)
        assert metrics_jsonl(dep_a.obs.metrics) == metrics_jsonl(dep_b.obs.metrics)
