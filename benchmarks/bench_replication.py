"""RP1 — replication: the cost of the replicated data path.

Prices the verified quorum write + hedged verified read per op in the
RP1 spec's ``perf`` stage, promoted through the fail-closed gate with
the ``all_faults_masked_or_detected`` invariance the spec demands.  The
RP1 and RP2 artifacts come from ``bench_scenarios.py``.
"""

import time

from repro.analysis.experiments import ExperimentResult, run_meta
from repro.net.faults import generate_replica_plans
from repro.replication import ReplicatedStore, ReplicationCampaignRunner
from repro.scenarios import SCENARIOS

RP1 = SCENARIOS.get("RP1")
OPS = 60
PAYLOAD_BYTES = 256


def test_bench_replicated_data_path(emit, perf_trajectory):
    """Wall cost of the replicated hot path: every write fans out to
    three platform backends and commits on a quorum; every read is
    attested, fork-checked, and served only once verified."""
    with RP1.stage_context("perf") as seed:
        store = ReplicatedStore(seed=seed)
        payloads = [bytes([i % 256]) * PAYLOAD_BYTES for i in range(OPS)]
        for i, data in enumerate(payloads):  # warm before timing
            store.put("warm", f"k{i}", data)
            store.get("warm", f"k{i}")
        best_put = best_get = float("inf")
        for round_no in range(3):
            started = time.perf_counter()
            for i, data in enumerate(payloads):
                store.put("bench", f"r{round_no}-k{i}", data)
            best_put = min(best_put, time.perf_counter() - started)
            started = time.perf_counter()
            for i in range(OPS):
                obj = store.get("bench", f"r{round_no}-k{i}")
                assert obj.data == payloads[i]
            best_get = min(best_get, time.perf_counter() - started)
        clean = not store.verifier.findings
        assert clean, "clean benchmark produced verifier findings"
        put_ms = best_put / OPS * 1e3
        get_ms = best_get / OPS * 1e3
        # The stage's declared invariance, proven at the stage seed: a
        # seeded sub-campaign with zero silent faults and zero false
        # positives (plus the clean timing run above).
        sub = ReplicationCampaignRunner(seed=seed).run(
            generate_replica_plans(seed, 12))
        contract_holds = (
            clean and sub.silent_faults == 0 and sub.violation_count == 0
            and sub.clean_plan_findings() == 0
        )
        assert contract_holds
        result = ExperimentResult(
            experiment_id="RP1-perf",
            title="Replicated data path cost (3 backends, quorum 2)",
            headers=["op", f"best wall s ({OPS} ops)", "ms per op"],
            rows=[
                ["quorum write (3-way fan-out)", f"{best_put:.4f}",
                 f"{put_ms:.3f}"],
                ["verified read (attest + fork-check)", f"{best_get:.4f}",
                 f"{get_ms:.3f}"],
            ],
            facts={
                "ops": OPS,
                "write_ms_per_op": put_ms,
                "verified_read_ms_per_op": get_ms,
                "clean_run_zero_findings": clean,
            },
            notes="Each write goes through all three platform front doors "
            "(S3-style API, SharedKey REST, datastore) and the trusted log; "
            "each read verifies an HMAC attestation against it.",
            meta=run_meta(seed),
        )
    emit(result)
    perf_trajectory(RP1.perf_entry(
        "perf",
        invariance={"all_faults_masked_or_detected": contract_holds},
        recorded_by="bench_replication.py",
        ops=OPS,
        write_ms_per_op=round(put_ms, 3),
        verified_read_ms_per_op=round(get_ms, 3),
    ))
