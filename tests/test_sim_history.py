"""Tests for History: queries, projections and pretty rendering."""

from repro.memory.register import AtomicRegister
from repro.sim.events import Invocation, PrimitiveEvent
from repro.sim.history import History, Tap
from repro.sim.process import Op
from repro.sim.runner import Simulation


def build_history():
    sim = Simulation()
    a = AtomicRegister("a", 1)
    b = AtomicRegister("b", 2)

    def reader(reg, name):
        def gen():
            return (yield from reg.read())

        return Op(name, gen)

    sim.spawn("p")
    sim.spawn("q")
    sim.add_program("p", [reader(a, "read_a"), reader(b, "read_b")])
    sim.add_program("q", [reader(b, "read_b")])
    sim.run()
    return sim.history


class TestQueries:
    def test_operations_in_invocation_order(self):
        history = build_history()
        names = [op.name for op in history.operations()]
        assert sorted(names) == ["read_a", "read_b", "read_b"]

    def test_filter_by_pid_and_name(self):
        history = build_history()
        assert len(history.operations(pid="p")) == 2
        assert len(history.operations(name="read_b")) == 2
        assert len(history.operations(pid="q", name="read_b")) == 1

    def test_complete_and_pending(self):
        history = build_history()
        assert len(history.complete_operations()) == 3
        assert history.pending_operations() == []

    def test_primitive_filters(self):
        history = build_history()
        assert len(history.primitive_events(obj_name="a")) == 1
        assert len(history.primitive_events(obj_name="b")) == 2
        assert len(history.primitive_events(pid="q")) == 1
        assert history.primitive_events(primitive="write") == []

    def test_projection_contains_results(self):
        history = build_history()
        view = history.projection("p")
        assert view == [("a", "read", (), 1), ("b", "read", (), 2)]

    def test_operation_lookup(self):
        history = build_history()
        op = history.operation("p", 0)
        assert op.name == "read_a"
        assert op.result == 1

    def test_precedes(self):
        history = build_history()
        p_ops = history.operations(pid="p")
        assert p_ops[0].precedes(p_ops[1])
        assert not p_ops[1].precedes(p_ops[0])

    def test_indices_monotone(self):
        history = build_history()
        indices = [e.index for e in history.events]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


class TestPretty:
    def test_pretty_mentions_everything(self):
        history = build_history()
        text = history.pretty()
        assert "invoke" in text
        assert "response" in text
        assert "a.read" in text

    def test_pretty_limit(self):
        history = build_history()
        assert len(history.pretty(limit=2).splitlines()) == 2

    def test_len_and_iter(self):
        history = build_history()
        assert len(history) == len(list(history))


class TestEmpty:
    def test_empty_history(self):
        history = History()
        assert history.operations() == []
        assert history.primitive_events() == []
        assert history.projection("p") == []
        assert len(history) == 0


class TestStreaming:
    def test_history_streaming_nowhere_only_counts_primitives(self):
        """Without retention or a sink no one reads a primitive event,
        so none is built; the index still advances past each one."""
        history = History()
        history.stream_to(None, retain=False)
        invocation = history.record_invocation("p", 0, "write", (1,))
        assert history.record_primitive(
            "p", 0, "R", "write", (1,), None
        ) is None
        assert history.record_primitive(
            "p", 0, "R", "read", (), 1
        ) is None
        response = history.record_response("p", 0, "write", None)
        assert (invocation.index, response.index) == (0, 3)
        assert history.events == [] and history.completed_count == 1

    def test_explicit_counter_stands_in_for_the_sinks(self):
        """A tap that reads ``R`` gets ``R``'s primitive events; every
        other primitive is only counted into it."""
        history = History()
        seen, counted = [], []

        class ReadsR:
            reads = frozenset({"R"})
            feed = seen.append
            count = counted.append

        history.stream_to(ReadsR, retain=False)
        history.record_invocation("p", 0, "read", ())
        assert history.record_primitive("p", 0, "S", "read", (), 0) is None
        history.record_primitive("p", 0, "R", "read", (), 0)
        history.record_response("p", 0, "read", 0)
        assert [event.index for event in seen] == [0, 2, 3]
        assert counted == [1]

    def test_plain_callables_and_retained_histories_get_every_event(self):
        seen = []
        for retain in (True, False):
            history = History()
            history.stream_to(seen.append, retain=retain)
            history.record_invocation("p", 0, "read", ())
            history.record_primitive("p", 0, "S", "read", (), 0)
            history.record_response("p", 0, "read", 0)
        assert [type(event).__name__ for event in seen] == 2 * [
            "Invocation", "PrimitiveEvent", "Response"
        ]

    def test_tap_routes_each_primitive_to_its_readers(self):
        """A joint tap reads the union of its members' objects (all of
        them beside a plain callable), feeds a primitive to the members
        that read its object and counts it into the others."""
        log = []

        class Oracle:
            def __init__(self, name, reads):
                self.name, self.reads = name, frozenset(reads)

            def feed(self, event):
                log.append((self.name, "feed", event.index))

            def count(self, index):
                log.append((self.name, "count", index))

        a, b = Oracle("a", {"R"}), Oracle("b", ())
        tap = Tap([a, b])
        assert tap.reads == {"R"}
        assert Tap([a, log.append]).reads is None
        assert Tap([]).reads == frozenset() and Tap([]).feed is None
        history = History()
        history.stream_to(tap, retain=False)
        history.record_invocation("p", 0, "read", ())
        history.record_primitive("p", 0, "R", "read", (), 0)
        history.record_primitive("p", 0, "S", "read", (), 0)
        assert log == [
            ("a", "feed", 0), ("b", "feed", 0),
            ("a", "feed", 1), ("b", "count", 1),
            ("a", "count", 2), ("b", "count", 2),
        ]
        # Fed every event, the tap routes it as the history would have.
        del log[:]
        for event in (
            Invocation(0, "p", 0, "read", ()),
            PrimitiveEvent(1, "p", 0, "R", "read", (), 0),
            PrimitiveEvent(2, "p", 0, "S", "read", (), 0),
        ):
            tap.feed(event)
        assert log == [
            ("a", "feed", 0), ("b", "feed", 0),
            ("a", "feed", 1), ("b", "count", 1),
            ("a", "count", 2), ("b", "count", 2),
        ]
