"""Cross-seed determinism of every registered campaign scenario.

Two runs with the same root seed must produce byte-identical canonical
result JSON (sorted keys, wall-clock meta stripped); a different root
seed must produce a different run_key (and therefore a different
identity stamp on every artifact).
"""

import pytest

from repro.scenarios import SCENARIOS, canonical_result_json

CAMPAIGN_SCENARIOS = ["FC1", "CR1", "OB1", "OB2", "TP1"]


@pytest.mark.parametrize("scenario_id", CAMPAIGN_SCENARIOS)
def test_same_root_seed_is_byte_identical(scenario_id, scenario_result):
    scenario = SCENARIOS.get(scenario_id)
    first = canonical_result_json(scenario_result(scenario_id), scenario.spec)
    second = canonical_result_json(scenario.run(), scenario.spec)
    assert first == second
    assert f'"{scenario.run_key()}"' in first  # stamped into the meta block


@pytest.mark.parametrize("scenario_id", CAMPAIGN_SCENARIOS)
def test_different_root_seed_changes_the_run_key(scenario_id):
    scenario = SCENARIOS.get(scenario_id)
    reseeded = scenario.reseeded(scenario.spec.root_seed + "-alt")
    assert reseeded.run_key() != scenario.run_key()
    assert reseeded.seed() != scenario.seed()
