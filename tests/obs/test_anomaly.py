"""Anomaly detectors: rate shifts and SLO burn rate."""

import pytest

from repro.obs.anomaly import (
    AnomalyMonitor,
    BurnRateDetector,
    RateShiftDetector,
    alerts_table,
)
from repro.obs.metrics import MetricsRegistry


class TestRateShiftDetector:
    def make(self, counter, **kwargs):
        kwargs.setdefault("window", 4)
        kwargs.setdefault("factor", 4.0)
        kwargs.setdefault("min_events", 3.0)
        return RateShiftDetector("rate", lambda: counter.value, **kwargs)

    def test_steady_rate_never_fires(self):
        reg = MetricsRegistry()
        c = reg.counter("steady")
        det = self.make(c)
        for t in range(20):
            c.inc(2)
            assert det.sample(float(t)) == []
        assert det.fired == 0

    def test_burst_over_baseline_fires(self):
        reg = MetricsRegistry()
        c = reg.counter("bursty")
        det = self.make(c)
        for t in range(8):
            c.inc(1)
            det.sample(float(t))
        c.inc(10)  # 10x the steady per-poll delta
        alerts = det.sample(8.0)
        assert len(alerts) == 1
        assert alerts[0].value == 10.0
        assert alerts[0].threshold == 4.0  # factor * baseline mean of 1

    def test_burst_from_silence_needs_min_events(self):
        reg = MetricsRegistry()
        c = reg.counter("quiet")
        det = self.make(c, min_events=3.0)
        for t in range(6):
            det.sample(float(t))  # silent baseline
        c.inc(2)
        assert det.sample(6.0) == []  # under min_events
        c.inc(3)
        assert len(det.sample(7.0)) == 1

    def test_needs_min_history_before_judging(self):
        reg = MetricsRegistry()
        c = reg.counter("young")
        det = self.make(c, min_history=3)
        c.inc(50)
        assert det.sample(0.0) == []  # first read only seeds the level
        c.inc(50)
        assert det.sample(1.0) == []  # 1 baseline delta < min_history
        c.inc(50)
        assert det.sample(2.0) == []

    def test_bounded_memory(self):
        reg = MetricsRegistry()
        c = reg.counter("mem")
        det = self.make(c, window=4)
        for t in range(1000):
            c.inc(1)
            det.sample(float(t))
        assert len(det._deltas) == 4


class TestBurnRateDetector:
    def make(self, good, bad, **kwargs):
        kwargs.setdefault("slo", 0.9)
        kwargs.setdefault("threshold", 2.0)
        kwargs.setdefault("window", 4)
        kwargs.setdefault("min_events", 4.0)
        return BurnRateDetector(
            "slo", lambda: good.value, lambda: bad.value, **kwargs)

    def test_slo_rejects_degenerate_values(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        with pytest.raises(ValueError):
            self.make(c, c, slo=1.0)
        with pytest.raises(ValueError):
            self.make(c, c, slo=0.0)

    def test_healthy_traffic_never_fires(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad)
        for t in range(20):
            good.inc(10)
            if t % 10 == 9:
                bad.inc(1)  # 1% failures, well inside the 10% budget
            assert det.sample(float(t)) == []

    def test_budget_burn_fires_with_rate(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad, threshold=2.0)
        for t in range(4):
            good.inc(10)
            det.sample(float(t))
        bad.inc(30)  # windowed failure fraction far above 2x budget
        alerts = det.sample(4.0)
        assert len(alerts) == 1
        assert alerts[0].value >= 2.0

    def test_edge_triggered_then_rearms(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad, window=3)
        for t in range(3):
            good.inc(5)
            det.sample(float(t))
        bad.inc(5)
        assert len(det.sample(3.0)) == 1
        assert det.sample(4.0) == []  # same burn still in window
        for t in range(5, 10):
            good.inc(5)
            det.sample(float(t))  # healthy polls re-arm
        bad.inc(5)
        assert len(det.sample(10.0)) == 1

    def test_too_few_events_withholds_judgement(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad, min_events=4.0)
        det.sample(0.0)
        bad.inc(2)  # 100% failures but only 2 events
        assert det.sample(1.0) == []

    def test_burn_is_the_number_the_alert_carries(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad, window=4)
        assert det.burn() == (0.0, 0.0, 0.0)  # no snapshot yet
        det.sample(0.0)
        good.inc(5)
        bad.inc(5)
        expected = det.burn()
        # 5 failed of 10 against a 10% budget: burn 5x.
        assert expected == (pytest.approx(5.0), 5.0, 10.0)
        alerts = det.sample(1.0)
        assert len(alerts) == 1 and alerts[0].value == expected[0]

    def test_burn_reads_zero_with_no_traffic_in_window(self):
        reg = MetricsRegistry()
        good, bad = reg.counter("ok"), reg.counter("fail")
        det = self.make(good, bad)
        bad.inc(3)
        det.sample(0.0)
        assert det.burn() == (0.0, 0.0, 0.0)


class TestAnomalyMonitor:
    def test_poll_aggregates_and_logs(self):
        reg = MetricsRegistry()
        c = reg.counter("retx")
        monitor = AnomalyMonitor(reg)
        monitor.add(RateShiftDetector(
            "retx-rate", lambda: c.value, window=4, min_history=2,
            min_events=3.0))
        for t in range(5):
            c.inc(1)
            monitor.poll(float(t))
        c.inc(12)
        fresh = monitor.poll(5.0)
        assert len(fresh) == 1
        assert monitor.alerts == fresh
        assert monitor.polls == 6
        assert monitor.alert_counts() == {"retx-rate": 1}

    def test_clock_fallback_stamps_alerts(self):
        reg = MetricsRegistry()
        c = reg.counter("retx")
        monitor = AnomalyMonitor(reg, clock=lambda: 42.5)
        monitor.add(RateShiftDetector(
            "retx-rate", lambda: c.value, window=4, min_history=1,
            min_events=1.0))
        monitor.poll()
        c.inc(1)
        monitor.poll()
        c.inc(50)
        alerts = monitor.poll()
        assert alerts and alerts[0].time == 42.5

    def test_empty_monitor_polls_are_noops(self):
        monitor = AnomalyMonitor(MetricsRegistry())
        assert monitor.poll(1.0) == []
        assert monitor.alert_counts() == {}

    def test_alerts_table_renders(self):
        reg = MetricsRegistry()
        c = reg.counter("retx")
        monitor = AnomalyMonitor(reg)
        monitor.add(RateShiftDetector(
            "retx-rate", lambda: c.value, subject="engine.retx",
            window=4, min_history=1, min_events=1.0))
        monitor.poll(0.0)
        monitor.poll(1.0)  # one judged poll seeds the baseline history
        c.inc(9)
        monitor.poll(2.0)
        text = monitor.table(title="Test alerts")
        assert "Test alerts" in text
        assert "retx-rate" in text
        assert "engine.retx" in text
        assert alerts_table([]) .count("\n") >= 1  # renders empty too

    def test_same_inputs_identical_alert_stream(self):
        def run():
            reg = MetricsRegistry()
            c = reg.counter("retx")
            monitor = AnomalyMonitor(reg)
            monitor.add(RateShiftDetector(
                "retx-rate", lambda: c.value, window=4, min_history=2,
                min_events=2.0))
            for t in range(10):
                c.inc(8 if t == 7 else 1)
                monitor.poll(float(t))
            return [a.row() for a in monitor.alerts]

        assert run() == run()
