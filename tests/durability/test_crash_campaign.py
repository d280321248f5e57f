"""The CR1 acceptance gate: a seeded amnesia-crash campaign.

Every run must reach a terminal state, no durably-acknowledged
evidence may be lost, no party may hold conflicting evidence — and the
whole outcome table must be byte-for-byte reproducible from the seed.
"""

import pytest

from repro.net.faults import CampaignRunner, generate_amnesia_plans

SEED = b"exp/cr1"
N_PLANS = 100

_TERMINAL = {"completed", "resolved", "aborted", "failed"}


@pytest.fixture(scope="module")
def cr1_report():
    plans = generate_amnesia_plans(SEED, N_PLANS)
    runner = CampaignRunner(seed=SEED, durable=True)
    return runner.run(plans)


class TestPlanGeneration:
    def test_deterministic(self):
        assert generate_amnesia_plans(b"s", 20) == generate_amnesia_plans(b"s", 20)

    def test_names_unique(self):
        plans = generate_amnesia_plans(b"s", 50)
        assert len({p.name for p in plans}) == 50

    def test_every_plan_has_an_amnesia_window(self):
        for plan in generate_amnesia_plans(b"s", 50):
            assert any(w.amnesia for w in plan.crashes)


class TestCr1Acceptance:
    def test_every_run_terminal(self, cr1_report):
        assert len(cr1_report.outcomes) == N_PLANS
        assert cr1_report.hung_sessions == 0
        assert set(cr1_report.status_counts()) <= _TERMINAL

    def test_zero_violations(self, cr1_report):
        """The extended audit: terminal state, no conflicting evidence,
        trace accounting, and zero durably-acknowledged evidence lost."""
        assert cr1_report.violation_count == 0

    def test_crashes_actually_happened_and_recovered(self, cr1_report):
        crashes = sum(o.crashes for o in cr1_report.outcomes)
        recoveries = sum(o.recoveries for o in cr1_report.outcomes)
        assert crashes >= N_PLANS  # every plan crashes at least once
        assert recoveries == crashes

    def test_reproducible_byte_for_byte(self, cr1_report):
        rerun = CampaignRunner(seed=SEED, durable=True).run(
            generate_amnesia_plans(SEED, N_PLANS)
        )
        assert rerun.signature() == cr1_report.signature()


class TestNonDurableControl:
    def test_amnesia_without_journal_is_flagged(self):
        """The control arm: the same crashes with no durability layer
        must be caught by the audit, not silently shrugged off."""
        plans = generate_amnesia_plans(b"cr1-control", 10)
        report = CampaignRunner(
            seed=b"cr1-control", durable=False
        ).run(plans)
        assert report.violation_count > 0
        assert any(
            "irrecoverably lost" in v
            for o in report.outcomes
            for v in o.violations
        )
