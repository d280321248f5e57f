"""Structured fault notes: parsing TraceRecorder note fields back.

Satellite of ISSUE 3: the ``"plan=<name> rule=<i> action=<a>"`` and
crash-window note strings written by :mod:`repro.net.faults` must parse
into :class:`FaultNote` records carrying every field of the formats
the injector actually writes.
"""

from repro.core.protocol import make_deployment, run_upload
from repro.net.faults import CrashWindow, FaultAction, FaultInjector, FaultPlan, FaultRule
from repro.net.trace import FaultNote, parse_fault_note


class TestRuleNotes:
    def test_round_trip_every_action(self):
        for i, action in enumerate(FaultAction):
            note = f"plan=p-{i} rule={i} action=fault.{action.value}"
            parsed = parse_fault_note(note)
            assert parsed is not None
            assert parsed.plan == f"p-{i}"
            assert parsed.rule == i
            assert parsed.action == f"fault.{action.value}"
            assert not parsed.node

    def test_matches_the_injector_format_string(self):
        # The exact f-string faults.py uses for rule decisions.
        plan = FaultPlan(name="drop-2nd", rules=(
            FaultRule(action=FaultAction.DROP, kind="tpnr.", nth=2),
        ))
        for i, rule in enumerate(plan.rules):
            note = f"plan={plan.name} rule={i} action={rule.action.value}"
            parsed = parse_fault_note(note)
            assert (parsed.plan, parsed.rule, parsed.action) == (
                plan.name, i, rule.action.value)


class TestCrashWindowNotes:
    def test_round_trip_both_kinds(self):
        for amnesia in (False, True):
            window = CrashWindow("alice", 0.5, 2.25, amnesia=amnesia)
            note = f"plan=crash-plan {window.describe()}"
            parsed = parse_fault_note(note)
            assert parsed is not None
            assert parsed.plan == "crash-plan"
            assert parsed.action == ("amnesia-crash" if amnesia else "crash")
            assert parsed.node == "alice"
            assert parsed.start == 0.5
            assert parsed.duration == 2.25

    def test_integral_times_render_without_trailing_zeros(self):
        window = CrashWindow("bob", 0.0, 3.0)
        note = f"plan=x {window.describe()}"
        assert "@0s +3s" in note
        parsed = parse_fault_note(note)
        assert (parsed.node, parsed.start, parsed.duration) == ("bob", 0.0, 3.0)


class TestNonFaultNotes:
    def test_unparseable_notes_return_none(self):
        for note in ("", "channel", "plan=", "something else entirely",
                     "plan=p rule=x action=y"):
            assert parse_fault_note(note) is None


class TestEndToEnd:
    def test_recorder_fault_notes_from_an_injected_run(self):
        dep = make_deployment(seed=b"trace-notes/e2e")
        plan = FaultPlan(name="note-drop", rules=(
            FaultRule(action=FaultAction.DROP, kind="tpnr.upload", nth=1),
        ))
        injector = FaultInjector(plan)
        dep.network.install_adversary(injector)
        injector.reset(epoch=dep.sim.now)
        run_upload(dep, b"note payload")
        dep.network.remove_adversary()

        events = dep.network.trace.faults()
        assert events, "the drop rule should have fired"
        for event in events:
            parsed = parse_fault_note(event.note)
            assert isinstance(parsed, FaultNote)
            assert parsed.plan == "note-drop"
            assert event.action == f"fault.{parsed.action}"
