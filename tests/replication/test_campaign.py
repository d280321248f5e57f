"""RP1: every injected replica fault masked or detected, never silent."""

from repro.net.faults import (
    FaultPlan,
    ReplicaFault,
    ReplicaFaultMode,
    generate_replica_plans,
)
from repro.obs.campaign import class_breakdown, fault_class
from repro.replication import ReplicationCampaignRunner

SEED = b"test-rp1"


def test_plan_generation_is_deterministic():
    a = [p.describe() for p in generate_replica_plans(SEED, 40)]
    b = [p.describe() for p in generate_replica_plans(SEED, 40)]
    assert a == b
    assert a != [p.describe() for p in generate_replica_plans(b"other", 40)]


def test_plan_mix_has_controls_and_compounds():
    plans = generate_replica_plans(SEED, 60)
    clean = [p for p in plans if not p.replica_faults]
    compound = [p for p in plans if len(p.replica_faults) == 2]
    assert clean and compound
    modes = {rf.mode for p in plans for rf in p.replica_faults}
    assert modes == set(ReplicaFaultMode)


def test_replica_faults_default_keeps_fc1_plans_unchanged():
    # The field rides on FaultPlan; absent replica faults, describe()
    # must stay byte-identical so FC1/CR1 signatures never move.
    assert FaultPlan(name="x").describe() == "no-op"


def test_fault_class_replica_branch():
    single = FaultPlan(name="s", replica_faults=(
        ReplicaFault(ReplicaFaultMode.LAGGING, "s3like"),))
    compound = FaultPlan(name="c", replica_faults=(
        ReplicaFault(ReplicaFaultMode.LAGGING, "s3like"),
        ReplicaFault(ReplicaFaultMode.DIVERGENCE, "gaelike"),))
    assert fault_class(single) == "lagging-replica"
    assert fault_class(compound) == "replica-compound"
    assert fault_class(FaultPlan(name="n")) == "none"


class TestCampaignContract:
    def test_no_silent_faults_no_false_positives(self):
        plans = generate_replica_plans(SEED, 30)
        report = ReplicationCampaignRunner(seed=SEED).run(plans)
        assert report.silent_faults == 0
        assert report.violation_count == 0
        assert report.clean_plan_findings() == 0
        assert report.injected_faults > 0
        assert report.masked_faults + report.detected_faults == \
            report.injected_faults

    def test_signature_is_reproducible(self):
        plans = generate_replica_plans(SEED, 15)
        sig_a = ReplicationCampaignRunner(seed=SEED).run(plans).signature()
        sig_b = ReplicationCampaignRunner(seed=SEED).run(plans).signature()
        assert sig_a == sig_b

    def test_breakdown_carries_replica_fault_classes(self):
        plans = generate_replica_plans(SEED, 30)
        report = ReplicationCampaignRunner(seed=SEED).run(plans)
        classes = {row["fault_class"] for row in class_breakdown(report)}
        assert "none" in classes  # the clean controls
        assert classes & {m.value for m in ReplicaFaultMode}

