"""Tests for the event-log record and the timeline tool."""

from repro import AuditableRegister, RandomSchedule, Simulation
from repro.sim.event_log import JsonlEventSink, load_event_log
from repro.sim.events import CrashEvent, Invocation, PrimitiveEvent, Response
from repro.tools import render_timeline


def build_history(crash_reader=False):
    sim = Simulation(schedule=RandomSchedule(4))
    reg = AuditableRegister(num_readers=1, initial="v0")
    writer = reg.writer(sim.spawn("w0"))
    reader = reg.reader(sim.spawn("r0"), 0)
    auditor = reg.auditor(sim.spawn("a0"))
    sim.add_program("w0", [writer.write_op("x")])
    sim.add_program("r0", [reader.read_op()])
    sim.add_program("a0", [auditor.audit_op()])
    if crash_reader:
        sim.step_process("r0")
        sim.crash("r0")
    sim.run()
    return sim.history, reg


class TestEventLogRecord:
    """The JSONL event log is the round-trippable record of a run."""

    def test_every_event_kind_round_trips(self, tmp_path):
        history, _ = build_history(crash_reader=True)
        path = str(tmp_path / "run.jsonl")
        sink = JsonlEventSink(path, meta={"seed": 4})
        for event in history.events:
            sink(event)
        sink.close()
        events, clean, meta = load_event_log(path)
        assert clean and meta["seed"] == 4
        assert events == list(history.events)
        assert {type(event) for event in events} == {
            Invocation, Response, PrimitiveEvent, CrashEvent,
        }


class TestTimeline:
    def test_timeline_mentions_all_ops(self):
        history, reg = build_history()
        chart = render_timeline(history, reg)
        for label in ("w0 write#0", "r0 read#0", "a0 audit#0"):
            assert label in chart

    def test_timeline_markers(self):
        history, reg = build_history()
        chart = render_timeline(history, reg)
        assert "W" in chart  # install CAS
        assert "X" in chart  # fetch&xor
        assert "A" in chart  # audit's R read

    def test_pending_ops_open_ended(self):
        history, reg = build_history(crash_reader=True)
        chart = render_timeline(history, reg)
        assert ">" in chart

    def test_empty_history(self):
        from repro.sim.history import History

        assert render_timeline(History()) == "(empty history)"

    def test_without_register_no_markers(self):
        history, _ = build_history()
        chart = render_timeline(history)
        assert "[" in chart and "]" in chart
