"""TP1/TP2 at population scale: 1,000 and 10,000 tenants end to end.

No other test drives the engine at this size.  The claim under test is
correctness — every session completes and verifies, the TTP stays
off-line, the sharded merge and the fail-closed batch settlement hold —
not speed: provisioning the identities (RSA keygen) dominates the wall
clock.  Both are marked slow; select or deselect them with ``-m slow``.
"""

import pytest

from repro.engine import run_pool
from repro.scenarios import SCENARIOS


@pytest.mark.slow
def test_1000_tenants_complete_and_verify():
    result = run_pool(SCENARIOS.get("TP1").seed(), 1000)
    assert result.completed == len(result.sessions) == result.verified == 1000
    assert result.ttp_stats["resolves_handled"] == 0
    assert result.cache_stats["verify"]["hits"] > 0


@pytest.mark.slow
def test_10000_tenants_sharded_and_batched():
    result = run_pool(SCENARIOS.get("TP2").seed(), 10_000, shards=8, batch_size=256)
    assert result.completed == len(result.sessions) == result.verified == 10_000
    assert result.ttp_stats["resolves_handled"] == 0
    assert result.batch_stats["failed"] == 0
    assert result.batch_stats["resolved"] > 0
