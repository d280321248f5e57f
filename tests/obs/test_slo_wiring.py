"""SLO wiring into the campaign runner and the replicated store.

The campaign runner evaluates its standard SLO set after every plan,
attaches the end-of-run SLOReport as telemetry (never part of any
signature), and the fault
storms of :func:`generate_storm_plans` burn budgets hard enough to
page while clean runs stay silent.  The observed replicated store
feeds the instruments that read-integrity and fork-detection SLIs read.
"""

import pytest

from repro.net.faults import CampaignRunner, FaultPlan, generate_storm_plans

SEED = b"slo-wiring"


def status(report, name: str):
    """The status of the SLO named *name* in *report*."""
    return next(s for s in report.statuses if s.name == name)


def clean_plans(n: int) -> list[FaultPlan]:
    return [FaultPlan(name=f"s{i:03d}-clean") for i in range(n)]


class TestStormPlans:
    def test_same_seed_same_plans(self):
        a = generate_storm_plans(SEED, 8)
        b = generate_storm_plans(SEED, 8)
        assert [p.name for p in a] == [p.name for p in b]
        assert [p.describe() for p in a] == [p.describe() for p in b]

    def test_profiles_shape_the_plans(self):
        for profile in ("blackout", "delay", "corrupt"):
            plans = generate_storm_plans(SEED, 5, profile=profile)
            assert all(p.name.endswith(f"storm-{profile}") for p in plans)
        mixed = {p.name.rsplit("-", 1)[-1]
                 for p in generate_storm_plans(SEED, 30, profile="mixed")}
        assert mixed == {"blackout", "delay", "corrupt"}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_storm_plans(SEED, 3, profile="tsunami")


class TestCampaignWiring:
    def test_clean_campaign_reports_full_budgets_and_no_alerts(self):
        runner = CampaignRunner(seed=SEED, slo=True)
        report = runner.run(clean_plans(6))
        assert report.slo is not None
        assert report.slo.burn_alerts() == []
        assert report.alerts == []
        assert all(s.budget_remaining == 1.0 for s in report.slo.statuses)
        assert {s.name for s in report.slo.statuses} == {
            "session-success", "terminal-latency", "evidence-verified"}

    def test_storm_burns_budgets_and_pages(self):
        runner = CampaignRunner(seed=SEED, slo=True)
        report = runner.run(generate_storm_plans(SEED, 6, profile="blackout"))
        assert len(report.slo.burn_alerts()) >= 1
        # SLO alerts also land on the campaign report's alert log.
        assert report.alerts == report.slo.alerts
        assert status(report.slo, "session-success").budget_remaining == 0.0
        assert report.hung_sessions == 0

    def test_slo_toggle_does_not_move_the_signature(self):
        plans = generate_storm_plans(SEED, 4, profile="mixed")
        dark = CampaignRunner(seed=SEED).run(plans)
        lit = CampaignRunner(seed=SEED, slo=True).run(plans)
        assert lit.signature() == dark.signature()
        assert dark.slo is None

    def test_on_plan_hook_sees_live_slo_state(self):
        seen = []
        runner = CampaignRunner(
            seed=SEED, slo=True,
            on_plan=lambda i, o: seen.append(
                (i, o.status, len(runner.slos.statuses()))))
        runner.run(clean_plans(3))
        assert [i for i, _, _ in seen] == [0, 1, 2]
        assert all(n == 3 for _, _, n in seen)

    def test_report_is_stamped_with_poll_count(self):
        runner = CampaignRunner(seed=SEED, slo=True)
        report = runner.run(clean_plans(4))
        assert report.slo.meta["polls"] == 4


class TestReplicationWiring:
    def make_observed_store(self):
        from repro.core.protocol import make_deployment, run_upload
        from repro.replication import ReplicatedStore, attach_replication

        dep = make_deployment(seed=SEED, observe=True)
        store = attach_replication(dep, ReplicatedStore(seed=SEED + b"/store"))
        outcome = run_upload(dep, b"slo wiring payload " * 8)
        txn = outcome.transaction_id
        # Tamper the replica the next read will probe first — read_order
        # is HMAC-ranked per key, so the primary varies with the txn id.
        primary = store.read_order("tpnr-data", txn)[0]
        return dep, store, txn, primary

    def test_tampered_read_feeds_the_slo_instruments(self):
        from repro.core.protocol import run_download

        dep, store, txn, primary = self.make_observed_store()
        store.tamper_replica(primary, "tpnr-data", txn, b"diverged")
        assert run_download(dep, txn).verified
        metrics = dep.obs.metrics
        assert metrics.counter(
            "replication.findings", category="replica-divergence").value == 1
        assert metrics.counter("replication.hedged_reads").value == 1
        assert metrics.counter("replication.read_repairs").value == 1
        assert metrics.counter("replication.reads", outcome="repaired").value == 1
        sketch = metrics.sketch("replication.fork_detection_seconds")
        assert sketch.count == 1
        assert sketch.max < 5.0  # inside the fork-detection objective

    def test_slis_read_those_instruments(self):
        from repro.core.protocol import run_download
        from repro.obs.slo import CounterRatioSLI, SketchThresholdSLI, SLOManager, SLOSpec

        dep, store, txn, primary = self.make_observed_store()
        metrics = dep.obs.metrics
        mgr = SLOManager(metrics)
        mgr.add(SLOSpec("read-integrity", objective=0.9, sli=CounterRatioSLI(
            metrics, ("replication.reads", {"outcome": "clean"}),
            ("replication.reads", {"outcome": "repaired"}))))
        mgr.add(SLOSpec("fork-detection-latency", objective=0.9, sli=SketchThresholdSLI(
            metrics, "replication.fork_detection_seconds", 5.0)))
        store.tamper_replica(primary, "tpnr-data", txn, b"diverged")
        run_download(dep, txn)
        mgr.poll(dep.sim.now)
        report = mgr.report(dep.sim.now)
        reads = status(report, "read-integrity")
        assert reads.good == 0.0 and reads.bad == 1.0
        fork = status(report, "fork-detection-latency")
        assert fork.good == 1.0 and fork.bad == 0.0

    def test_unobserved_store_keeps_null_metrics(self):
        from repro.obs.metrics import NULL_METRICS
        from repro.replication import ReplicatedStore

        store = ReplicatedStore(seed=SEED)
        assert store.metrics is NULL_METRICS
        store.put("c", "k", b"data")  # must not blow up on null metrics
        assert store.get("c", "k").data == b"data"
