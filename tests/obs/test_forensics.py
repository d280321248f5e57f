"""Forensics: cross-surface timeline reconstruction + consistency audit."""

import pytest

from repro.core.arbitrator import Verdict
from repro.core.protocol import make_deployment, run_download, run_session, run_upload
from repro.core.provider import ProviderBehavior
from repro.errors import ReproError
from repro.net.faults import (
    CrashWindow,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.obs.forensics import (
    _SOURCE_RANK,
    ConsistencyAuditor,
    DisputeDossier,
    TimelineReconstructor,
)
from repro.storage.tamper import TamperMode


def observed_session(seed: bytes, **kwargs):
    dep = make_deployment(seed=seed, observe=True, durable=True, **kwargs)
    outcome = run_session(dep, b"forensic test payload " * 8)
    return dep, outcome.transaction_id


def faulted_upload(seed: bytes, plan: FaultPlan, **kwargs):
    dep = make_deployment(seed=seed, observe=True, durable=True, **kwargs)
    injector = FaultInjector(plan)
    dep.network.install_adversary(injector)
    injector.reset(epoch=dep.sim.now)
    outcome = run_upload(dep, b"faulted payload " * 4)
    dep.network.remove_adversary()
    return dep, outcome.transaction_id


def categories(findings) -> set:
    return {f.category for f in findings}


class TestUnobservedDeployment:
    def test_every_forensic_read_rejects_an_unobserved_deployment(self):
        # No tracer, no spans to join: a timeline would read the missing
        # record as "nothing happened", so every entry point refuses.
        dep = make_deployment(seed=b"forensics-dark", durable=True)
        txn = run_session(dep, b"unobserved payload").transaction_id
        for read in (dep.timeline, dep.forensic_audit, dep.dossier):
            with pytest.raises(ReproError, match=r"make_deployment\(observe=True\)"):
                read(txn)


class TestTimelineReconstruction:
    @pytest.fixture(scope="class")
    def clean(self):
        return observed_session(b"forensics-clean")

    def test_all_four_sources_join(self, clean):
        dep, txn = clean
        timeline = dep.timeline(txn)
        assert set(timeline.sources()) == {"span", "wire", "wal", "evidence"}
        assert all(count > 0 for count in timeline.sources().values())

    def test_entries_causally_ordered(self, clean):
        dep, txn = clean
        timeline = dep.timeline(txn)
        keys = [(e.time, _SOURCE_RANK[e.source]) for e in timeline.entries]
        assert keys == sorted(keys)

    def test_wal_send_precedes_wire_send_at_same_instant(self, clean):
        # Log-before-act: at any shared instant the WAL entry sorts
        # before the wire event, which sorts before the span event.
        dep, txn = clean
        timeline = dep.timeline(txn)
        for earlier, later in zip(timeline.entries, timeline.entries[1:]):
            if earlier.time == later.time:
                assert _SOURCE_RANK[earlier.source] <= _SOURCE_RANK[later.source]

    def test_evidence_facts_cover_both_parties(self, clean):
        dep, txn = clean
        timeline = dep.timeline(txn)
        holders = {f.holder for f in timeline.evidence_facts}
        assert {dep.client.name, dep.provider.name} <= holders
        assert all(f.verified for f in timeline.evidence_facts)
        assert all(f.transaction_id == txn for f in timeline.evidence_facts)

    def test_span_send_ids_appear_on_wire(self, clean):
        dep, txn = clean
        timeline = dep.timeline(txn)
        wire_ids = {e.msg_id for e in timeline.wire_events if e.msg_id}
        assert timeline.span_send_ids
        assert timeline.span_send_ids <= wire_ids

    def test_same_seed_renders_identically(self):
        # Each deployment numbers its own transactions, so two
        # same-seed reconstructions are byte-identical, ids included.
        renders = []
        for _ in range(2):
            dep, txn = observed_session(b"forensics-deterministic")
            renders.append(dep.timeline(txn).render())
        assert renders[0] == renders[1]

    def test_wal_payloads_render_as_digest_prefix(self, clean):
        # Payload fields live in the blob segment; the WAL row names
        # the payload by its SHA-256, which is the signed H(data).
        dep, txn = clean
        prefix = dep.client.transactions[txn].data_hash.hex()[:12]
        details = {e.kind: e.detail for e in dep.timeline(txn).entries
                   if e.source == "wal"}
        for kind in ("wal:client.upload", "wal:client.download.result",
                     "wal:provider.blob"):
            assert f"data=sha256:{prefix}" in details[kind].split()

    def test_render_truncates_to_max_rows(self, clean):
        dep, txn = clean
        timeline = dep.timeline(txn)
        text = timeline.render(max_rows=5)
        assert f"{len(timeline.entries) - 5} more entries" in text

    def test_second_transaction_is_isolated(self):
        # Two sessions on one deployment: each timeline joins only its
        # own transaction's records.
        dep = make_deployment(seed=b"forensics-two-txn", observe=True,
                              durable=True)
        first = run_session(dep, b"first payload")
        second = run_session(dep, b"second payload")
        t1 = dep.timeline(first.transaction_id)
        t2 = dep.timeline(second.transaction_id)
        assert first.transaction_id != second.transaction_id
        assert all(f.transaction_id == first.transaction_id
                   for f in t1.evidence_facts)
        wire_overlap = ({e.msg_id for e in t1.wire_events if e.msg_id}
                        & {e.msg_id for e in t2.wire_events if e.msg_id})
        assert not wire_overlap

    def test_for_deployment_matches_manual_construction(self, clean):
        dep, txn = clean
        manual = TimelineReconstructor(
            dep.network.trace, dep.obs.tracer,
            [dep.client, dep.provider, dep.ttp],
            registry=dep.registry,
        )
        assert (manual.reconstruct(txn).render()
                == dep.timeline(txn).render())


class TestConsistencyAuditor:
    def test_clean_session_zero_findings(self):
        dep, txn = observed_session(b"audit-clean")
        assert dep.forensic_audit(txn) == []

    def test_dropped_message_classified_as_loss(self):
        plan = FaultPlan(
            name="audit-drop",
            rules=(FaultRule(FaultAction.DROP, "tpnr.upload.receipt"),),
        )
        dep, txn = faulted_upload(b"audit-drop", plan)
        assert "message-loss" in categories(dep.forensic_audit(txn))

    def test_corrupted_message_classified(self):
        plan = FaultPlan(
            name="audit-corrupt",
            rules=(FaultRule(FaultAction.CORRUPT, "tpnr.upload"),),
        )
        dep, txn = faulted_upload(b"audit-corrupt", plan)
        assert "message-corruption" in categories(dep.forensic_audit(txn))

    def test_duplicate_and_delay_classified(self):
        plan = FaultPlan(
            name="audit-dup-delay",
            rules=(
                FaultRule(FaultAction.DUPLICATE, "tpnr.upload", count=1),
                FaultRule(FaultAction.DELAY, "tpnr.upload.receipt", delay=1.0),
            ),
        )
        dep, txn = faulted_upload(b"audit-dup-delay", plan)
        cats = categories(dep.forensic_audit(txn))
        assert {"duplicate-injection", "message-delay"} <= cats

    def test_amnesia_crash_classified_as_rollback(self):
        plan = FaultPlan(
            name="audit-amnesia",
            crashes=(CrashWindow("alice", 0.0, 2.0, amnesia=True),),
        )
        dep, txn = faulted_upload(b"audit-amnesia", plan)
        assert "amnesia-rollback" in categories(dep.forensic_audit(txn))

    def test_plain_crash_classified_as_outage(self):
        plan = FaultPlan(
            name="audit-crash",
            crashes=(CrashWindow("bob", 0.0, 2.0, amnesia=False),),
        )
        dep, txn = faulted_upload(b"audit-crash", plan)
        assert "crash-outage" in categories(dep.forensic_audit(txn))

    def test_in_storage_tampering_detected(self):
        dep = make_deployment(
            seed=b"audit-tamper", observe=True, durable=True,
            behavior=ProviderBehavior(tamper_mode=TamperMode.FIXUP_MD5),
        )
        outcome = run_upload(dep, b"tamper target payload " * 4)
        run_download(dep, outcome.transaction_id)
        findings = dep.forensic_audit(outcome.transaction_id)
        assert "in-storage-tampering" in categories(findings)

    def test_erased_wire_trace_surfaces_trace_gaps(self):
        # An operator wipes the wire trace after the fact: every span
        # send now lacks wire corroboration.
        dep, txn = observed_session(b"audit-wipe")
        dep.network.trace.clear()
        cats = categories(dep.forensic_audit(txn))
        assert cats == {"trace-gap"}

    def test_evidence_store_rollback_detected(self):
        # Durably-acknowledged evidence vanishing from the live store is
        # the amnesia signature, however it happened.
        dep, txn = observed_session(b"audit-rollback")
        store = dep.client.evidence_store
        lost = store._by_txn[txn].pop()  # simulate silent in-memory loss
        store._seen.discard((lost.signer, lost.header.to_signed_bytes()))
        findings = ConsistencyAuditor.for_deployment(dep).audit(txn)
        assert any(
            f.category == "amnesia-rollback" and "evidence store" in f.subject
            for f in findings
        )

    def test_findings_deduplicated(self):
        plan = FaultPlan(
            name="audit-dedup",
            rules=(FaultRule(FaultAction.DROP, "tpnr.upload.data"),),
        )
        dep, txn = faulted_upload(b"audit-dedup", plan)
        findings = dep.forensic_audit(txn)
        assert len({(f.category, f.subject) for f in findings}) == len(findings)


class TestDisputeDossier:
    def test_clean_dossier_agrees_on_both_disputes(self):
        dep, txn = observed_session(b"dossier-clean")
        dossier = dep.dossier(txn)
        assert dossier.agrees(dep.arbitrator, "tampering")
        assert dossier.agrees(dep.arbitrator, "missing-receipt")
        assert dossier.reconstructed_verdict("tampering") is Verdict.CLAIM_REJECTED

    def test_tampering_dossier_blames_provider(self):
        dep = make_deployment(
            seed=b"dossier-tamper", observe=True, durable=True,
            behavior=ProviderBehavior(tamper_mode=TamperMode.REPLACE),
        )
        outcome = run_upload(dep, b"dossier tamper payload " * 4)
        run_download(dep, outcome.transaction_id)
        dossier = dep.dossier(outcome.transaction_id)
        assert dossier.reconstructed_verdict("tampering") is Verdict.PROVIDER_FAULT
        assert dossier.agrees(dep.arbitrator, "tampering")

    def test_render_cross_validates_against_arbitrator(self):
        dep, txn = observed_session(b"dossier-render")
        text = dep.dossier(txn).render(arbitrator=dep.arbitrator, max_rows=10)
        assert f"Dispute dossier {txn}" in text
        assert "[agrees]" in text
        assert "DISAGREES" not in text

    def test_unknown_dispute_type_rejected(self):
        dep, txn = observed_session(b"dossier-unknown")
        dossier = dep.dossier(txn)
        with pytest.raises(ValueError):
            dossier.reconstructed_verdict("ownership")
        with pytest.raises(ValueError):
            dossier.rule(dep.arbitrator, "ownership")

    def test_build_matches_deployment_convenience(self):
        dep, txn = observed_session(b"dossier-build")
        built = DisputeDossier.build(dep, txn)
        assert built.render() == dep.dossier(txn).render()
