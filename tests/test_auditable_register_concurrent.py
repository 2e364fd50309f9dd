"""Concurrent-execution tests for Algorithm 1: linearizability, audit
exactness, structural invariants, hand-crafted interleavings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AuditableRegister, Simulation
from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_audit_monotone,
    check_fetch_xor_uniqueness,
    check_history,
    check_phase_structure,
    check_value_sequence,
    phase_intervals,
)
from repro.sim.scheduler import ReplaySchedule
from repro.workloads.generators import RegisterWorkload, build_register_system


def run_workload(seed, **kwargs):
    workload = RegisterWorkload(seed=seed, **kwargs)
    built = build_register_system(workload)
    history = built.run()
    return built, history


class TestRandomExecutions:
    @pytest.mark.parametrize("seed", range(25))
    def test_audit_exactness(self, seed):
        built, history = run_workload(seed)
        assert check_audit_exactness(history, built.register) == []

    @pytest.mark.parametrize("seed", range(25))
    def test_linearizable(self, seed):
        built, history = run_workload(
            seed, reads_per_reader=3, writes_per_writer=2
        )
        spec = auditable_register_spec("v0", built.reader_index)
        assert check_history(history.operations(), spec).ok

    @pytest.mark.parametrize("seed", range(25))
    def test_structural_invariants(self, seed):
        built, history = run_workload(seed)
        assert check_phase_structure(history, built.register) == []
        assert check_fetch_xor_uniqueness(history, built.register) == []
        assert check_value_sequence(history, built.register) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_audits_monotone(self, seed):
        built, history = run_workload(seed, audits_per_auditor=3)
        assert check_audit_monotone(history) == []

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_audit_exactness_property(self, seed):
        built, history = run_workload(
            seed, num_readers=3, num_writers=2, reads_per_reader=3,
            writes_per_writer=2, audits_per_auditor=2,
        )
        assert check_audit_exactness(history, built.register) == []
        assert check_phase_structure(history, built.register) == []
        assert check_fetch_xor_uniqueness(history, built.register) == []


class TestPhasePartition:
    def test_phases_alternate_and_cover(self):
        built, history = run_workload(3, writes_per_writer=4)
        intervals = phase_intervals(history, built.register)
        kinds = [kind for kind, _, _, _ in intervals]
        # E0 D1 E1 D2 ... strict alternation starting at E.
        assert kinds[0] == "E"
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        # Contiguous cover of the log, with exactly the boundary step
        # (rho/sigma, as in Lemma 1's decomposition) between phases.
        for (_, _, _, end), (_, _, start, _) in zip(
            intervals, intervals[1:]
        ):
            assert start == end + 1
        # Sequence numbers: E_l then D_{l+1} (same seq as following E).
        seqs = [seq for _, seq, _, _ in intervals]
        assert seqs == sorted(seqs)


class TestHandCraftedInterleavings:
    def test_reader_helps_complete_write(self):
        """A reader that fetches a value from a not-yet-announced write
        advances SN (line 5), helping the write complete."""
        sim = Simulation()
        reg = AuditableRegister(num_readers=1, initial="v0")
        writer = reg.writer(sim.spawn("w"))
        reader = reg.reader(sim.spawn("r"), 0)
        sim.add_program("w", [writer.write_op("x")])
        # Run the writer until its R CAS succeeded but SN not updated:
        # primitives: SN.read, R.read, V.write, R.cas -> stop before
        # the final SN.cas.
        for _ in range(5):
            sim.step_process("w")
        assert reg.R.peek().seq == 1
        assert reg.SN.peek() == 0  # D phase
        # Reader runs fully: gets the new value, helps SN forward.
        sim.add_program("r", [reader.read_op()])
        sim.run_process("r")
        assert sim.history.operations(pid="r")[-1].result == "x"
        assert reg.SN.peek() == 1  # helped
        # The stalled writer finishes without harm.
        sim.run_process("w")
        assert reg.SN.peek() == 1

    def test_silent_write_abandoned_when_overtaken(self):
        """A write that sees a newer sequence number in R breaks out
        without installing its value (silent write)."""
        sim = Simulation()
        reg = AuditableRegister(num_readers=1, initial="v0")
        w1 = reg.writer(sim.spawn("w1"))
        w2 = reg.writer(sim.spawn("w2"))
        # w1 reads SN (gets sn=1) then stalls.
        sim.add_program("w1", [w1.write_op("loser")])
        sim.step_process("w1")  # invocation
        sim.step_process("w1")  # SN.read
        # w2 performs a full write (also sn=1) and completes.
        sim.add_program("w2", [w2.write_op("winner")])
        sim.run_process("w2")
        assert reg.R.peek().val == "winner"
        # w1 resumes: sees R.seq = 1 >= its sn, exits silently.
        sim.run_process("w1")
        assert reg.R.peek().val == "winner"
        cas_events = sim.history.primitive_events(
            pid="w1", obj_name=reg.R.name, primitive="compare_and_swap"
        )
        assert cas_events == []  # never attempted the install

    def test_concurrent_same_seq_writes_one_visible(self):
        """Two writers racing for the same sequence number: exactly one
        CAS succeeds (Lemma 19: unique visible write per seq)."""
        sim = Simulation()
        reg = AuditableRegister(num_readers=1, initial="v0")
        w1 = reg.writer(sim.spawn("w1"))
        w2 = reg.writer(sim.spawn("w2"))
        sim.add_program("w1", [w1.write_op("a")])
        sim.add_program("w2", [w2.write_op("b")])
        # Interleave both to just before their R CAS.
        for pid in ("w1", "w2"):
            for _ in range(4):  # invocation, SN.read, R.read, V.write
                sim.step_process(pid)
            assert sim.processes[pid].pending.primitive == "compare_and_swap"
        sim.run()
        successes = [
            e
            for e in sim.history.primitive_events(
                obj_name=reg.R.name, primitive="compare_and_swap"
            )
            if e.result
        ]
        assert len(successes) == 1
        assert reg.R.peek().seq == 1
        assert check_phase_structure(sim.history, reg) == []

    def test_audit_during_d_phase_advances_sn(self):
        """An audit observing a D phase helps close it before returning
        (line 22), preserving real-time order for silent reads."""
        sim = Simulation()
        reg = AuditableRegister(num_readers=1, initial="v0")
        writer = reg.writer(sim.spawn("w"))
        auditor = reg.auditor(sim.spawn("a"))
        sim.add_program("w", [writer.write_op("x")])
        for _ in range(5):  # stop after R CAS, before SN CAS
            sim.step_process("w")
        assert reg.SN.peek() == 0
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        assert reg.SN.peek() == 1

    def test_reader_fetch_xor_between_copy_and_cas_is_archived(self):
        """The scenario motivating compare&swap in write (Section 3.1):
        a reader arriving between the writer's copy to V/B and its CAS
        must not be lost -- the CAS fails and the retry archives it."""
        sim = Simulation()
        reg = AuditableRegister(num_readers=1, initial="v0")
        writer = reg.writer(sim.spawn("w"))
        reader = reg.reader(sim.spawn("r"), 0)
        auditor = reg.auditor(sim.spawn("a"))
        sim.add_program("w", [writer.write_op("x")])
        for _ in range(4):  # invocation, SN.read, R.read, V[0].write
            sim.step_process("w")
        assert sim.processes["w"].pending.primitive == "compare_and_swap"
        # Reader reads v0 now -- after the copy, before the CAS.
        sim.add_program("r", [reader.read_op()])
        sim.run_process("r")
        assert sim.history.operations(pid="r")[-1].result == "v0"
        # Writer retries and finishes; audit must report (0, v0).
        sim.run_process("w")
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        report = sim.history.operations(name="audit")[-1].result
        assert (0, "v0") in report
        assert check_audit_exactness(sim.history, reg) == []


class TestReplayedSchedules:
    def test_fixed_interleaving_linearizable(self):
        script = (
            ["w0"] * 3 + ["r0"] * 2 + ["w0"] * 2 + ["r0"] * 2 + ["a0"] * 30
        )
        sim = Simulation(schedule=ReplaySchedule(script))
        reg = AuditableRegister(num_readers=1, initial="v0")
        handles = {
            "w0": reg.writer(sim.spawn("w0")),
            "r0": reg.reader(sim.spawn("r0"), 0),
            "a0": reg.auditor(sim.spawn("a0")),
        }
        sim.add_program("w0", [handles["w0"].write_op("x")])
        sim.add_program("r0", [handles["r0"].read_op()])
        sim.add_program("a0", [handles["a0"].audit_op()])
        history = sim.run()
        assert check_audit_exactness(history, reg) == []
        spec = auditable_register_spec("v0", {"r0": 0})
        assert check_history(history.operations(), spec).ok
