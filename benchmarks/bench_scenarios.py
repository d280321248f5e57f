"""The experiment stage of every registered scenario.

Each run is timed, checked against its spec's ``expect`` contract, and
written to ``results/<id>.txt`` / ``results/<id>.json``.  The artifacts
are deterministic, so regenerating them on an unchanged tree leaves
``git diff`` empty.
"""

import pytest

from repro.scenarios import SCENARIOS


@pytest.mark.parametrize("scenario", list(SCENARIOS), ids=SCENARIOS.ids())
def test_scenario(benchmark, emit, scenario):
    result = benchmark.pedantic(scenario.run, rounds=1, iterations=1)
    assert result.meta["run_key"] == scenario.run_key()
    assert scenario.check(result) == []
    emit(result)
