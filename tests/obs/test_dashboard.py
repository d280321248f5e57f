"""The live dashboard renderer: pure frames, deterministic text."""

from repro.obs.anomaly import Alert
from repro.obs.dashboard import (
    DashboardFrame,
    budget_bar,
    render_frame,
    top_fault_classes,
)
from repro.obs.slo import SLOStatus


def status(name="session-success", remaining=0.5, alerts=0) -> SLOStatus:
    return SLOStatus(
        name=name, objective=0.9, description="", good=9.0, bad=1.0,
        sli=0.9, budget_consumed=1.0 - remaining, budget_remaining=remaining,
        burn_rates={"fast": 1.25, "slow": 0.5}, alerts=alerts)


class TestBudgetBar:
    def test_full_half_empty(self):
        assert budget_bar(1.0, width=4) == "[####] 100%"
        assert budget_bar(0.5, width=4) == "[##..]  50%"
        assert budget_bar(0.0, width=4) == "[....]   0%"

    def test_clamps_out_of_range(self):
        assert budget_bar(1.7, width=4) == budget_bar(1.0, width=4)
        assert budget_bar(-0.3, width=4) == budget_bar(0.0, width=4)


class TestTopFaultClasses:
    class Outcome:
        def __init__(self, plan, status="failed", hung=False):
            self.plan = plan
            self.status = status
            self.hung = hung

    def test_ranks_bad_sessions_by_class(self):
        from repro.net.faults import FaultAction, FaultPlan, FaultRule

        drop = FaultPlan(name="d", rules=(FaultRule(FaultAction.DROP, "tpnr."),))
        delay = FaultPlan(name="l", rules=(FaultRule(FaultAction.DELAY, "tpnr."),))
        outcomes = [
            self.Outcome(drop), self.Outcome(drop),
            self.Outcome(delay),
            self.Outcome(delay, status="completed"),  # good: not counted
        ]
        ranked = top_fault_classes(outcomes)
        assert ranked[0] == ("drop", 2)
        assert ranked[1][1] == 1

    def test_hung_counts_as_bad_and_k_bounds(self):
        from repro.net.faults import FaultPlan

        clean = FaultPlan(name="c")
        outcomes = [self.Outcome(clean, status="completed", hung=True)]
        assert top_fault_classes(outcomes) == [("none", 1)]
        assert top_fault_classes([], k=3) == []


class TestRenderFrame:
    def frame(self, **kwargs):
        defaults = dict(
            title="SLO dashboard", now=12.5, done=3, total=10,
            statuses=[status(), status("terminal-latency", 0.0, alerts=2)],
            alerts=[Alert(12.0, "slo-burn:terminal-latency:fast",
                          "terminal-latency", 10.0, 8.0, "4/4 failed")],
            offenders=[("drop", 3)],
        )
        defaults.update(kwargs)
        return DashboardFrame(**defaults)

    def test_renders_progress_budgets_alerts_offenders(self):
        text = render_frame(self.frame())
        assert "plans 3/10" in text
        assert "session-success" in text and "terminal-latency" in text
        assert "100%" not in text.splitlines()[0]
        assert "fast= 1.25x" in text
        assert "ALERTS=2" in text
        assert "slo-burn:terminal-latency:fast" in text
        assert "drop" in text and "3 bad session(s)" in text

    def test_recent_alerts_are_bounded(self):
        alerts = [Alert(float(i), "d", "s", 9.0, 8.0, f"a{i}") for i in range(9)]
        text = render_frame(self.frame(alerts=alerts, recent_alerts=2))
        assert "recent alerts (9 total)" in text
        assert "a8" in text and "a7" in text
        assert "a0" not in text

    def test_empty_frame_renders(self):
        text = render_frame(DashboardFrame(
            title="t", now=0.0, done=0, total=0))
        assert text.startswith("t  ")
        assert "plans 0/0" in text

    def test_same_frame_same_bytes(self):
        assert render_frame(self.frame()) == render_frame(self.frame())
