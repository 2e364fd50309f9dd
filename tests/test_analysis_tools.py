"""Tests for the structural analysis tools: they must *detect*
violations, not just pass on correct algorithms."""

from dataclasses import replace

import pytest

from repro import AuditableRegister, Simulation
from repro.analysis import (
    check_audit_exactness,
    check_audit_monotone,
    check_fetch_xor_uniqueness,
    check_phase_structure,
    check_value_sequence,
    phase_intervals,
)
from repro.memory.rword import RWord
from repro.sim.events import Response
from repro.sim.history import History


class FakeRegister:
    """Minimal register stand-in for feeding handcrafted traces."""

    def __init__(self, num_readers=2, initial="v0"):
        self.num_readers = num_readers
        self.initial = initial

        class _Named:
            def __init__(self, name):
                self.name = name

        self.R = _Named("fake.R")
        self.SN = _Named("fake.SN")

    def _decode_value(self, value):
        return value


def trace(events):
    """Build a History of primitive events from compact tuples."""
    history = History()
    for k, (pid, obj, primitive, args, result) in enumerate(events):
        history.record_invocation(pid, k, "op", ())
        history.record_primitive(pid, k, obj, primitive, args, result)
        history.record_response(pid, k, "op", None)
    return history


class TestPhaseChecker:
    def test_legal_walk_passes(self):
        reg = FakeRegister()
        history = trace([
            ("w", "fake.R", "compare_and_swap",
             (RWord(0, "v0", 0), RWord(1, "a", 0)), True),
            ("w", "fake.SN", "compare_and_swap", (0, 1), True),
            ("w", "fake.R", "compare_and_swap",
             (RWord(1, "a", 0), RWord(2, "b", 0)), True),
            ("w", "fake.SN", "compare_and_swap", (1, 2), True),
        ])
        assert check_phase_structure(history, reg) == []

    def test_sn_overtaking_r_detected(self):
        reg = FakeRegister()
        history = trace([
            ("w", "fake.SN", "compare_and_swap", (0, 1), True),
        ])
        violations = check_phase_structure(history, reg)
        assert violations and "illegal" in str(violations[0])

    def test_r_seq_jump_detected(self):
        reg = FakeRegister()
        history = trace([
            ("w", "fake.R", "compare_and_swap",
             (RWord(0, "v0", 0), RWord(2, "a", 0)), True),
        ])
        assert check_phase_structure(history, reg)

    def test_failed_cas_ignored(self):
        reg = FakeRegister()
        history = trace([
            ("w", "fake.R", "compare_and_swap",
             (RWord(5, "x", 0), RWord(6, "y", 0)), False),
        ])
        assert check_phase_structure(history, reg) == []


class TestFetchXorUniqueness:
    def test_repeat_same_seq_detected(self):
        reg = FakeRegister()
        history = trace([
            ("r0", "fake.R", "fetch_xor", (1,), RWord(3, "v", 0)),
            ("r0", "fake.R", "fetch_xor", (1,), RWord(3, "v", 1)),
        ])
        violations = check_fetch_xor_uniqueness(history, reg)
        assert len(violations) == 1

    def test_different_readers_same_seq_allowed(self):
        reg = FakeRegister()
        history = trace([
            ("r0", "fake.R", "fetch_xor", (1,), RWord(3, "v", 0)),
            ("r1", "fake.R", "fetch_xor", (2,), RWord(3, "v", 1)),
        ])
        assert check_fetch_xor_uniqueness(history, reg) == []

    def test_decreasing_seq_detected(self):
        reg = FakeRegister()
        history = trace([
            ("r0", "fake.R", "fetch_xor", (1,), RWord(3, "v", 0)),
            ("r0", "fake.R", "fetch_xor", (1,), RWord(2, "u", 0)),
        ])
        assert check_fetch_xor_uniqueness(history, reg)


class TestValueSequence:
    def test_monotone_violation_detected(self):
        reg = FakeRegister(initial=5)
        history = trace([
            ("w", "fake.R", "compare_and_swap",
             (RWord(0, 5, 0), RWord(1, 3, 0)), True),
        ])
        violations = check_value_sequence(history, reg, monotone=True)
        assert violations and "not increasing" in str(violations[0])

    def test_non_monotone_allowed_for_plain_register(self):
        reg = FakeRegister(initial=5)
        history = trace([
            ("w", "fake.R", "compare_and_swap",
             (RWord(0, 5, 0), RWord(1, 3, 0)), True),
        ])
        assert check_value_sequence(history, reg, monotone=False) == []


class TestAuditMonotone:
    def test_shrinking_audit_detected(self):
        history = History()
        history.record_invocation("a", 0, "audit", ())
        history.record_response("a", 0, "audit", frozenset({(0, "x")}))
        history.record_invocation("a", 1, "audit", ())
        history.record_response("a", 1, "audit", frozenset())
        problems = check_audit_monotone(history)
        assert problems and "shrank" in problems[0]

    def test_growing_audits_pass(self):
        history = History()
        history.record_invocation("a", 0, "audit", ())
        history.record_response("a", 0, "audit", frozenset())
        history.record_invocation("a", 1, "audit", ())
        history.record_response("a", 1, "audit", frozenset({(0, "x")}))
        assert check_audit_monotone(history) == []

    def test_independent_auditors(self):
        history = History()
        history.record_invocation("a", 0, "audit", ())
        history.record_response("a", 0, "audit", frozenset({(0, "x")}))
        history.record_invocation("b", 0, "audit", ())
        history.record_response("b", 0, "audit", frozenset())
        assert check_audit_monotone(history) == []


def tamper_last_audit(history, result):
    """Replace the result of the last recorded audit ``Response`` event
    (the oracle judges events, not the folded operation records)."""
    for position in range(len(history.events) - 1, -1, -1):
        event = history.events[position]
        if isinstance(event, Response) and event.op_name == "audit":
            history.events[position] = replace(event, result=result)
            return
    raise AssertionError("no audit response recorded")


class TestAuditExactnessDetectsBugs:
    def test_dishonest_audit_flagged(self):
        """Tamper with a recorded audit response: the oracle must flag
        it."""
        sim = Simulation()
        reg = AuditableRegister(num_readers=1, initial="v0")
        writer = reg.writer(sim.spawn("w"))
        reader = reg.reader(sim.spawn("r"), 0)
        auditor = reg.auditor(sim.spawn("a"))
        sim.add_program("w", [writer.write_op("x")])
        sim.run_process("w")
        sim.add_program("r", [reader.read_op()])
        sim.run_process("r")
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        assert check_audit_exactness(sim.history, reg) == []
        tamper_last_audit(sim.history, frozenset())  # hide the reader
        violations = check_audit_exactness(sim.history, reg)
        assert len(violations) == 1
        assert violations[0].missing == frozenset({(0, "x")})
        tamper_last_audit(sim.history, frozenset({(0, "x"), (0, "fake")}))
        violations = check_audit_exactness(sim.history, reg)
        assert violations[0].extra == frozenset({(0, "fake")})


class TestPhaseIntervals:
    def test_initial_phase_only(self):
        reg = FakeRegister()
        history = trace([
            ("r0", "fake.R", "fetch_xor", (1,), RWord(0, "v0", 0)),
        ])
        intervals = phase_intervals(history, reg)
        assert len(intervals) == 1
        kind, seq, start, end = intervals[0]
        assert (kind, seq, start) == ("E", 0, 0)
