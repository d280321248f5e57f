"""The discrete-event engine and simulated clock."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.events import ScheduledEvent, Simulator
from repro.net.simclock import SimClock

NAN = float("nan")
INF = float("inf")


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_no_time_travel(self):
        clock = SimClock(10.0)
        with pytest.raises(NetworkError):
            clock.advance_to(5.0)

    def test_advance_by(self):
        clock = SimClock(1.0)
        clock.advance_by(2.5)
        assert clock.now == 3.5

    def test_negative_step_rejected(self):
        with pytest.raises(NetworkError):
            SimClock().advance_by(-1.0)

    def test_nan_start_rejected(self):
        with pytest.raises(NetworkError):
            SimClock(NAN)

    def test_nan_advance_to_rejected_and_clock_kept(self):
        clock = SimClock(2.0)
        with pytest.raises(NetworkError):
            clock.advance_to(NAN)
        assert clock.now == 2.0
        with pytest.raises(NetworkError):
            clock.advance_to(1.0)  # still monotonic after the refused NaN

    def test_nan_advance_by_rejected_and_clock_kept(self):
        clock = SimClock(2.0)
        with pytest.raises(NetworkError):
            clock.advance_by(NAN)
        assert clock.now == 2.0

    def test_infinity_still_accepted(self):
        clock = SimClock()
        clock.advance_by(INF)
        assert clock.now == INF
        assert SimClock(INF).now == INF


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []

        def outer():
            hits.append(("outer", sim.now))
            sim.schedule(1.0, lambda: hits.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert hits == [("outer", 1.0), ("inner", 2.0)]

    def test_schedule_in_past_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(NetworkError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(NetworkError):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(NetworkError):
            Simulator().schedule(NAN, lambda: None)

    def test_nan_time_rejected(self):
        with pytest.raises(NetworkError):
            Simulator().schedule_at(NAN, lambda: None)

    def test_nan_does_not_disturb_order_or_clock(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        with pytest.raises(NetworkError):
            sim.schedule(NAN, lambda: order.append("nan"))
        sim.schedule(0.5, lambda: order.append("b"))
        sim.run()
        assert order == ["b", "a"]
        assert sim.now == 1.0

    def test_nan_start_rejected(self):
        with pytest.raises(NetworkError):
            Simulator(start=NAN)

    def test_run_until_nan_rejected_and_nothing_runs(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append("a"))
        with pytest.raises(NetworkError):
            sim.run(until=NAN)
        assert hits == [] and sim.now == 0.0 and sim.pending() == 1

    def test_run_until_infinity_runs_everything(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append("a"))
        sim.run(until=INF)
        assert hits == ["a"] and sim.now == INF

    def test_now_reads_the_clock(self):
        """The simulator keeps no copy of the time: it reads the clock's."""
        sim = Simulator(start=3.0)
        sim.clock.advance_to(4.5)
        assert sim.now == sim.clock.now == 4.5

    def test_infinite_time_still_accepted(self):
        sim = Simulator()
        sim.schedule(INF, lambda: None)
        sim.schedule_at(INF, lambda: None)
        assert sim.next_event_time() == INF
        assert sim.pending() == 2

    def test_cancel(self):
        sim = Simulator()
        hits = []
        event = sim.schedule(1.0, lambda: hits.append("cancelled"))
        sim.schedule(2.0, lambda: hits.append("kept"))
        event.cancel()
        sim.run()
        assert hits == ["kept"]

    def test_cancel_from_inside_event(self):
        sim = Simulator()
        hits = []
        later = sim.schedule(2.0, lambda: hits.append("should-not-run"))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert hits == []


class TestRun:
    def test_run_until_slices(self):
        sim = Simulator()
        hits = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: hits.append(t))
        sim.run(until=2.0)
        assert hits == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert hits == [1.0, 2.0, 3.0]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_step_returns_false_when_idle(self):
        assert Simulator().step() is False

    def test_pending_counts_live_events(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        e1.cancel()
        assert sim.pending() == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(float(t + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_event_budget(self):
        sim = Simulator(max_events=10)

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(NetworkError):
            sim.run()


class TestSimClockDelegation:
    def test_advance_by_is_advance_to_now_plus_dt(self):
        # advance_by delegates to advance_to, so the two share one
        # monotonicity check and update path (PR-4 bugfix: they used
        # to maintain `now` independently).
        a, b = SimClock(1.5), SimClock(1.5)
        a.advance_by(2.25)
        b.advance_to(b.now + 2.25)
        assert a.now == b.now == 3.75

    def test_zero_step_allowed(self):
        clock = SimClock(4.0)
        clock.advance_by(0.0)
        assert clock.now == 4.0


class TestNextEventTime:
    def test_none_when_idle(self):
        assert Simulator().next_event_time() is None

    def test_reports_earliest_pending_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.next_event_time() == 2.0
        sim.run(until=3.0)
        assert sim.next_event_time() == 5.0
        sim.run()
        assert sim.next_event_time() is None

    def test_skips_cancelled_heads(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.next_event_time() == 2.0

    def test_peek_does_not_consume(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.next_event_time() == 1.0
        assert sim.next_event_time() == 1.0
        assert sim.pending() == 1


# -- property: the heap against a sorted reference ---------------------------


@dataclass(frozen=True)
class PlannedEvent:
    """One top-level event: when it fires and what its callback does."""

    delay: float
    child_delay: float | None  # schedule a nested event this far ahead
    cancel: int | None  # cancel this top-level event from inside the callback


@dataclass(frozen=True)
class Plan:
    events: tuple[PlannedEvent, ...]
    cancel_before: tuple[int, ...]
    slices: tuple[float, ...]  # run(until=...) calls before the final run()


# Few distinct, exactly representable times, so equal timestamps are common.
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def plans(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n - 1)
    events = tuple(
        PlannedEvent(draw(TIMES), draw(st.none() | TIMES), draw(st.none() | index))
        for _ in range(n)
    )
    cancel_before = tuple(draw(st.lists(index, max_size=3)))
    slices = tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.75, 3.0]), max_size=3)))
    return Plan(events, cancel_before, slices)


def run_simulator(plan: Plan):
    sim = Simulator()
    log = []
    handles = {}

    def fire(i):
        log.append((i, sim.now))
        spec = plan.events[i]
        if spec.cancel is not None:
            handles[spec.cancel].cancel()
        if spec.child_delay is not None:
            label = f"{i}/child"
            handles[label] = sim.schedule(spec.child_delay, lambda: log.append((label, sim.now)))

    for i, spec in enumerate(plan.events):
        handles[i] = sim.schedule(spec.delay, lambda i=i: fire(i))
    for i in plan.cancel_before:
        handles[i].cancel()
    observed = []
    for until in (*plan.slices, None):
        sim.run(until=until)
        observed.append((sim.now, sim.pending(), sim.next_event_time(), sim.events_processed))
    stamps = {label: (h.time, h.seq) for label, h in handles.items()}
    assert all(isinstance(h, ScheduledEvent) for h in handles.values())
    return log, observed, stamps


def run_reference(plan: Plan):
    """The same plan over a plain list, always taking the (time, seq) minimum."""
    now, seq, processed = 0.0, 0, 0
    queue, entries, log = [], {}, []

    def push(t, label):
        nonlocal seq
        entry = entries[label] = {"time": t, "seq": seq, "label": label, "cancelled": False}
        seq += 1
        queue.append(entry)

    def live():
        return [e for e in queue if not e["cancelled"]]

    for i, spec in enumerate(plan.events):
        push(now + spec.delay, i)
    for i in plan.cancel_before:
        entries[i]["cancelled"] = True
    observed = []
    for until in (*plan.slices, None):
        while live():
            head = min(live(), key=lambda e: (e["time"], e["seq"]))
            if until is not None and head["time"] > until:
                break
            queue.remove(head)
            now = head["time"]
            processed += 1
            log.append((head["label"], now))
            if isinstance(head["label"], int):
                spec = plan.events[head["label"]]
                if spec.cancel is not None:
                    entries[spec.cancel]["cancelled"] = True
                if spec.child_delay is not None:
                    push(now + spec.child_delay, f"{head['label']}/child")
        if until is not None and now < until:
            now = until
        times = [e["time"] for e in live()]
        observed.append((now, len(times), min(times) if times else None, processed))
    stamps = {label: (e["time"], e["seq"]) for label, e in entries.items()}
    return log, observed, stamps


class TestAgainstSortedReference:
    @given(plans())
    @settings(max_examples=150, deadline=None)
    def test_same_order_clock_and_counters(self, plan):
        assert run_simulator(plan) == run_reference(plan)
