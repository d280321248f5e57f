"""Fault-injection layer: rules, injector attribution, and the campaign.

The acceptance bar for the fault subsystem (ISSUE: fault-injection
campaign runner): a seeded campaign of >= 50 generated plans over full
upload+download sessions in which every transaction settles or is
cleanly aborted/resolved — zero hung sessions, zero duplicate
evidence — and the same seed reproduces the identical outcome table.
"""

import pytest

from repro.core.protocol import make_deployment, run_abort, run_session
from repro.core.transaction import TxStatus
from repro.crypto.drbg import HmacDrbg
from repro.net.faults import (
    PAYLOAD_RANGE,
    TPNR_KINDS,
    CampaignRunner,
    CrashWindow,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    generate_plans,
)

PAYLOAD = b"fault payload " * 8


# ---------------------------------------------------------------------------
# Rules and plans
# ---------------------------------------------------------------------------


class TestFaultRule:
    def _env(self, kind="tpnr.upload", src="alice", dst="bob"):
        from repro.net.network import Envelope

        return Envelope(msg_id=1, src=src, dst=dst, kind=kind,
                        payload=b"", size_bytes=0, sent_at=0.0)

    def test_kind_prefix_match(self):
        rule = FaultRule(FaultAction.DROP, kind="tpnr.upload")
        assert rule.matches(self._env("tpnr.upload"))
        assert rule.matches(self._env("tpnr.upload.receipt"))
        assert not rule.matches(self._env("tpnr.download.request"))

    def test_src_dst_filters(self):
        rule = FaultRule(FaultAction.DROP, kind="tpnr.", src="alice", dst="bob")
        assert rule.matches(self._env())
        assert not rule.matches(self._env(src="bob", dst="alice"))

    def test_describe_mentions_span(self):
        rule = FaultRule(FaultAction.DROP, kind="tpnr.upload", nth=2, count=3)
        assert "#2-4" in rule.describe()

    def test_crash_window_covers(self):
        crash = CrashWindow("bob", start=1.0, duration=2.0)
        assert not crash.covers(0.5)
        assert crash.covers(1.0)
        assert crash.covers(2.9)
        assert not crash.covers(3.0)


class TestGeneratePlans:
    def test_deterministic(self):
        assert generate_plans(b"gp", 30) == generate_plans(b"gp", 30)

    def test_different_seed_differs(self):
        assert generate_plans(b"gp", 30) != generate_plans(b"gp2", 30)

    def test_count_and_names_unique(self):
        plans = generate_plans(b"gp", 64)
        assert len(plans) == 64
        assert len({p.name for p in plans}) == 64

    def test_mix_includes_crashes_and_rules(self):
        plans = generate_plans(b"gp", 64)
        assert any(p.crashes for p in plans)
        assert any(len(p.rules) == 2 for p in plans)

    def test_kinds_are_valid(self):
        for plan in generate_plans(b"gp", 64):
            for rule in plan.rules:
                assert rule.kind in TPNR_KINDS


# ---------------------------------------------------------------------------
# Injector semantics, one action at a time
# ---------------------------------------------------------------------------


def run_with_plan(plan, seed=b"faults-unit"):
    dep = make_deployment(seed=seed)
    injector = FaultInjector(plan)
    dep.network.install_adversary(injector)
    injector.reset(epoch=dep.sim.now)
    outcome = run_session(dep, PAYLOAD)
    return dep, injector, outcome


class TestInjectorActions:
    def test_drop_first_upload_recovered_by_retransmit(self):
        plan = FaultPlan("drop-upload", rules=(
            FaultRule(FaultAction.DROP, kind="tpnr.upload", nth=1, count=1),
        ))
        dep, injector, outcome = run_with_plan(plan)
        assert outcome.upload_status is TxStatus.COMPLETED
        assert injector.dropped == 1
        assert dep.client.retransmits_sent >= 1

    def test_duplicate_upload_rejected_by_anti_replay(self):
        plan = FaultPlan("dup-upload", rules=(
            FaultRule(FaultAction.DUPLICATE, kind="tpnr.upload", nth=1),
        ))
        dep, _, outcome = run_with_plan(plan)
        assert outcome.upload_status is TxStatus.COMPLETED
        # The byte-identical copy trips the §5.3/§5.4 checks at Bob.
        assert any("Replay" in reason or "nonce" in reason
                   for _, reason in dep.provider.rejected_messages)

    def test_corrupt_upload_rejected_then_recovered(self):
        plan = FaultPlan("corrupt-upload", rules=(
            FaultRule(FaultAction.CORRUPT, kind="tpnr.upload", nth=1),
        ))
        dep, _, outcome = run_with_plan(plan)
        assert outcome.upload_status is TxStatus.COMPLETED
        assert any("corrupted in transit" in reason
                   for _, reason in dep.provider.rejected_messages)

    def test_crash_window_blocks_both_directions(self):
        plan = FaultPlan("crash-bob", crashes=(CrashWindow("bob", 0.0, 1.0),))
        dep, injector, outcome = run_with_plan(plan)
        # Uploads at t=0 and t=0.6 are swallowed; the t=1.8 retransmit
        # lands after Bob restarts.
        assert outcome.upload_status is TxStatus.COMPLETED
        crash_events = [d for d in injector.decisions if d[1] == "crash"]
        assert len(crash_events) >= 2

    def test_fault_decisions_recorded_in_trace(self):
        plan = FaultPlan("drop-receipt", rules=(
            FaultRule(FaultAction.DROP, kind="tpnr.upload.receipt", nth=1),
        ))
        dep, _, _ = run_with_plan(plan)
        faults = dep.network.trace.faults()
        assert faults, "fault decision must appear in the trace"
        assert faults[0].action == "fault.drop"
        assert "plan=drop-receipt" in faults[0].note
        assert "rule=0" in faults[0].note
        # explain() reconstructs the fate of the dropped message.
        fate = dep.network.trace.explain(faults[0].msg_id)
        assert [e.action for e in fate][0] == "send"
        assert any(e.action == "fault.drop" for e in fate)

    def test_delay_past_budget_forces_resolve(self):
        # Hold every receipt long enough that the client escalates; the
        # TTP then recovers the NRR from Bob (status RESOLVED) before
        # the stale receipts finally land.
        plan = FaultPlan("delay-receipts", rules=(
            FaultRule(FaultAction.DELAY, kind="tpnr.upload.receipt",
                      nth=1, count=4, delay=20.0),
        ))
        dep, injector, outcome = run_with_plan(plan)
        assert outcome.upload_status is TxStatus.RESOLVED
        assert outcome.ttp_involved


# ---------------------------------------------------------------------------
# The campaign acceptance test
# ---------------------------------------------------------------------------


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        plans = generate_plans(b"fc-acceptance", 50)
        return plans, CampaignRunner(seed=b"fc-acceptance").run(plans)

    def test_at_least_fifty_plans(self, campaign):
        _, report = campaign
        assert len(report.outcomes) >= 50

    def test_zero_hung_sessions(self, campaign):
        _, report = campaign
        assert report.hung_sessions == 0
        for outcome in report.outcomes:
            assert outcome.status in ("completed", "aborted", "resolved", "failed")

    def test_zero_invariant_violations(self, campaign):
        _, report = campaign
        assert report.violation_count == 0

    def test_faults_actually_fired(self, campaign):
        _, report = campaign
        assert sum(1 for o in report.outcomes if o.faults_fired) >= 10

    def test_retransmission_was_exercised(self, campaign):
        _, report = campaign
        assert sum(o.retransmits for o in report.outcomes) > 0

    def test_same_seed_reproduces_identical_table(self, campaign):
        plans, report = campaign
        rerun = CampaignRunner(seed=b"fc-acceptance").run(
            generate_plans(b"fc-acceptance", 50)
        )
        assert rerun.signature() == report.signature()
        assert [o.row() for o in rerun.outcomes] == [o.row() for o in report.outcomes]

    def test_abort_scenario_settles(self):
        # Abort sessions under faults on one shared deployment, with the
        # seeds and payloads the campaign runner would use: each passes
        # the runner's full audit (terminal status, drained simulator, no
        # conflicting evidence, every message with a recorded fate, no
        # durably-acknowledged evidence lost).
        runner = CampaignRunner(seed=b"fc-abort")
        dep = make_deployment(seed=b"fc-abort/campaign")
        drbg = HmacDrbg(b"fc-abort", personalization=b"fault-campaign")
        lo, hi = PAYLOAD_RANGE
        for plan in generate_plans(b"fc-abort", 10):
            payload = drbg.generate(drbg.randint(lo, hi))
            injector = FaultInjector(plan)
            dep.network.install_adversary(injector)
            injector.reset(epoch=dep.sim.now)
            outcome = run_abort(dep, payload)
            dep.network.remove_adversary()
            assert outcome.upload_status in (
                TxStatus.COMPLETED, TxStatus.ABORTED,
                TxStatus.RESOLVED, TxStatus.FAILED), plan.name
            assert runner._audit(dep, outcome.transaction_id, injector) == [], plan.name
