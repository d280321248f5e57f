"""Every registered scenario shows what its spec's ``expect`` declares.

The required values live once, in the registry
(``ScenarioSpec.expect``).  ``test_scenario_contract`` checks every
scenario's whole contract; the per-artifact classes name which slice
of a contract each paper claim is, so a failure reads as the claim it
breaks.  All of them share one run per scenario.
"""

import pytest

from repro.scenarios import SCENARIOS


@pytest.mark.parametrize("scenario_id", SCENARIOS.ids())
def test_scenario_contract(scenario_id, scenario_result):
    scenario = SCENARIOS.get(scenario_id)
    assert scenario.check(scenario_result(scenario_id)) == []


@pytest.fixture
def claim(scenario_result):
    """Check the facts of one contract whose names start with a prefix."""

    def _claim(scenario_id: str, *prefixes: str) -> None:
        scenario = SCENARIOS.get(scenario_id)
        names = [n for n in scenario.spec.expect if n.startswith(prefixes)]
        assert names, f"{scenario_id} declares no fact under {prefixes}"
        broken = scenario.check(scenario_result(scenario_id))
        assert [m for m in broken if m.partition(": ")[0] in names] == []

    return _claim


class TestTable1:
    def test_put_and_get_succeed(self, claim):
        claim("T1", "put_ok", "get_ok")

    def test_forged_auth_rejected(self, claim):
        claim("T1", "forged_rejected")

    def test_md5_round_trips(self, claim):
        claim("T1", "md5_round_tripped")

    def test_rendered_requests_match_table1_layout(self, scenario_result):
        facts = scenario_result("T1").facts
        put = facts["put_rendered"]
        assert put.startswith("PUT http://")
        assert "Content-MD5: " in put
        assert "Authorization: SharedKey jerry:" in put
        assert "x-ms-date: " in put
        get = facts["get_rendered"]
        assert get.startswith("GET http://")
        assert "Authorization: SharedKey jerry:" in get


class TestFig1:
    def test_all_requests_answered(self, claim):
        claim("F1", "all_answered", "total_")


class TestFig2:
    def test_import_jobs_verified(self, claim):
        claim("F2", "all_jobs_completed", "jobs")


class TestFig3:
    def test_azure_flow(self, claim):
        claim("F3", "round_trip_ok", "wrong_key_rejected", "secret_key_bits")


class TestFig4:
    def test_sdc_pipeline(self, claim):
        claim("F4", "authorized_allowed", "rule_enforced", "tunnel_enforced",
              "replay_blocked")


class TestFig5:
    def test_azure_detects_naive_only(self, claim):
        claim("F5", "stored/")

    def test_aws_detects_nothing(self, claim):
        claim("F5", "recomputed/")

    def test_tpnr_detects_and_attributes_everything(self, claim):
        claim("F5", "tpnr/")


class TestFig6:
    def test_normal_two_steps_offline_ttp(self, claim):
        claim("F6", "normal_")

    def test_abort_without_ttp(self, claim):
        claim("F6", "abort_")

    def test_resolve_inline_ttp(self, claim):
        claim("F6", "resolve_")

    def test_dispute_convicts_tamperer(self, claim):
        claim("F6", "dispute_verdict")


class TestBridging:
    def test_scheme_matrix(self, claim):
        claim("S3", "plain/", "nn/", "sks/", "tac/", "both/")


class TestStepCounts:
    def test_two_vs_five(self, claim):
        claim("S4", "tpnr_always_fewer_steps", "1024/", "16384/", "262144/")

    def test_latency_advantage(self, claim):
        claim("S4", "tpnr_always_faster")


class TestAttacks:
    def test_matrix(self, claim):
        claim("S5", "tpnr_defense_holds", "weakened_all_fall")


class TestShipping:
    def test_protocol_is_trivial(self, claim):
        claim("S6", "protocol_")


class TestScenarioIndependence:
    def test_rp2_reads_the_same_replicas_after_other_runs(self, monkeypatch):
        """Transaction ids come from each world's own counter, so what
        RP2 reads (here: how often a probed replica lacks the object)
        does not depend on what ran before it in the process."""
        from repro.analysis.experiments import (
            experiment_migration,
            experiment_resilience,
            experiment_scalability,
        )
        from repro.core.protocol import make_deployment, run_session
        from repro.replication.verify import ForkConsistencyVerifier

        calls = []
        check_missing = ForkConsistencyVerifier.check_missing

        def counted(verifier, *args):
            calls.append(args)
            return check_missing(verifier, *args)

        monkeypatch.setattr(ForkConsistencyVerifier, "check_missing", counted)
        alone = experiment_migration()
        missing_alone = len(calls)
        experiment_scalability()
        experiment_resilience()
        dep = make_deployment(seed=b"independence")
        for n in range(5):
            run_session(dep, bytes([n]) * 64)
        calls.clear()
        after = experiment_migration()
        assert len(calls) == missing_alone
        assert after.rows == alone.rows and after.facts == alone.facts
