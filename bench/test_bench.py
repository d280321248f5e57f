"""Checks on the benchmark itself: ``python -m pytest bench``.

Every workload runs at a tiny size, so the suite takes seconds while
exercising the same code the full benchmark runs.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from bench import SPEC_PATH, use_checkout_source

use_checkout_source()

from bench import compare  # noqa: E402
from bench.runner import DETERMINISTIC, END_TO_END, measure, per_layer_units  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
SEED = 7

TINY = {
    "pool-classic": dict(n_tenants=3, transactions_per_tenant=1, min_rounds=2, setup_reps=1),
    "pool-batched": dict(n_tenants=4, transactions_per_tenant=2, batch_size=4,
                         min_rounds=2, setup_reps=1),
    "durable-replicated": dict(uploads=10, max_bytes=4096, min_rounds=2),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request):
    """(untraced, untraced again, traced) records of one tiny workload."""
    workload = tiny(request.param)
    return (measure(workload, SEED, 0, trace=False),
            measure(workload, SEED, 0, trace=False),
            measure(workload, SEED, 0, trace=True))


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "-m", "bench"]
    assert SPEC["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_every_metric_emitted_with_its_unit(runs):
    untraced, _, traced = runs
    for record, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert record["correct"], record["failures"]
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(record["metrics"]) == set(expected)
        assert {name: record["units"][name] for name in record["metrics"]} == expected
        assert all(math.isfinite(v) for v in record["metrics"].values())
    assert all(v > 0 for v in untraced["metrics"].values())


def test_same_seed_same_deterministic_outputs(runs):
    first, second, traced = runs
    assert first["signatures"] == second["signatures"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    # Tracing must not change what the rounds compute.
    assert traced["signatures"] == first["signatures"][:len(traced["signatures"])]
    assert compare.determinism_errors([first, second]) == []


@pytest.mark.parametrize("fault, wrong", [("coordinator", "claim-rejected"),
                                          ("blackmail", "provider-at-fault")])
def test_wrong_expected_verdict_trips_the_check(fault, wrong):
    workload = tiny("durable-replicated")
    plan = workload.inputs(SEED, 0)
    assert not workload.run_round(None, plan).failures
    target = next(u for u in plan.uploads if u.fault == fault)
    uploads = tuple(dataclasses.replace(u, expect_verdict=wrong) if u is target else u
                    for u in plan.uploads)
    failures = workload.run_round(None, dataclasses.replace(plan, uploads=uploads)).failures
    assert len(failures) == 1
    assert f"TXN-B{target.index:04d}" in failures[0] and wrong in failures[0]


def test_tracer_rebinds_from_imports_and_restores_them():
    from repro.crypto import aead, chacha20_np, hashes
    from repro.core import client

    originals = (chacha20_np.chacha20_xor, hashes.digest)
    tracer = Tracer()
    with tracer:
        assert aead.chacha20_xor is chacha20_np.chacha20_xor is not originals[0]
        assert client.digest is hashes.digest is not originals[1]
        aead.seal(bytes(32), bytes(12), b"payload")
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["crypto.aead.seal"] == 1 and calls["crypto.chacha20.xor"] == 1
    assert (aead.chacha20_xor, client.digest) == originals
    assert sum(tracer.self_seconds) == pytest.approx(tracer.traced_seconds)


@pytest.mark.parametrize("a, b, better, outcome", [
    ([100, 101, 99], [100, 102, 99], "higher", "same"),
    ([100, 101, 99], [80, 81, 79], "higher", "worse"),
    ([100, 101, 99], [80, 81, 79], "lower", "better"),
    ([100, 150, 60], [100, 101, 99], "lower", "unresolved"),
])
def test_compare_verdicts(a, b, better, outcome):
    assert compare.verdict(a, b, better, 0.10)[0] == outcome


def test_compare_flags_an_unreproduced_signature(runs):
    first, second, _ = runs
    altered = json.loads(json.dumps(second))
    altered["signatures"][0] = "0" * 64
    assert compare.determinism_errors([first, altered])
