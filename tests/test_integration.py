"""End-to-end integration tests combining several subsystems."""

import random

import pytest

from repro import (
    AuditableMaxRegister,
    AuditableRegister,
    RandomSchedule,
    Simulation,
)
from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_fetch_xor_uniqueness,
    check_history,
    check_phase_structure,
    effective_reads,
)
from repro.core import AuditableSnapshot


class TestRegisterWithCrashes:
    """Random executions with random crash injection: everything that
    completed or became effective stays consistent."""

    @pytest.mark.parametrize("seed", range(15))
    def test_crashes_preserve_audit_exactness(self, seed):
        rng = random.Random(seed)
        sim = Simulation(schedule=RandomSchedule(seed))
        reg = AuditableRegister(num_readers=2, initial="v0")
        handles = {
            "r0": reg.reader(sim.spawn("r0"), 0),
            "r1": reg.reader(sim.spawn("r1"), 1),
            "w0": reg.writer(sim.spawn("w0")),
            "a0": reg.auditor(sim.spawn("a0")),
        }
        sim.add_program("r0", [handles["r0"].read_op() for _ in range(3)])
        sim.add_program("r1", [handles["r1"].read_op() for _ in range(3)])
        sim.add_program(
            "w0", [handles["w0"].write_op(f"v{k}") for k in range(3)]
        )
        sim.add_program("a0", [handles["a0"].audit_op()])
        # Crash a random reader after a random prefix.
        for _ in range(rng.randrange(5, 40)):
            if not sim.step():
                break
        victim = rng.choice(["r0", "r1"])
        if sim.processes[victim].has_work():
            sim.crash(victim)
        sim.run()
        history = sim.history
        assert check_audit_exactness(history, reg) == []
        assert check_phase_structure(history, reg) == []
        assert check_fetch_xor_uniqueness(history, reg) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_effective_crashed_reads_are_audited_later(self, seed):
        """A reader that crashed mid-read with an effective read must
        appear in every audit that starts afterwards (Lemma 5)."""
        sim = Simulation()
        reg = AuditableRegister(num_readers=1, initial="v0")
        writer = reg.writer(sim.spawn("w"))
        reader = reg.reader(sim.spawn("r"), 0)
        auditor = reg.auditor(sim.spawn("a"))
        sim.add_program("w", [writer.write_op("x")])
        sim.run_process("w")
        sim.add_program("r", [reader.read_op()])
        sim.step_process("r")  # invocation
        sim.step_process("r")  # SN.read
        sim.step_process("r")  # fetch&xor -> effective
        sim.crash("r")
        effective = effective_reads(sim.history, reg)
        assert len(effective) == 1 and not effective[0].complete
        # More writes happen; the evidence must survive archiving.
        sim.add_program("w", [writer.write_op(f"y{seed}")])
        sim.run_process("w")
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        report = sim.history.operations(name="audit")[-1].result
        assert (0, "x") in report


class TestMixedObjects:
    def test_register_and_snapshot_coexist(self):
        """Two auditable objects in one simulation stay independent."""
        sim = Simulation(schedule=RandomSchedule(3))
        reg = AuditableRegister(num_readers=1, initial="r-init", name="reg")
        snap = AuditableSnapshot(
            components=1, num_scanners=1, initial="s-init", name="snap"
        )
        reg_writer = reg.writer(sim.spawn("rw"))
        reg_reader = reg.reader(sim.spawn("rr"), 0)
        reg_auditor = reg.auditor(sim.spawn("ra"))
        snap_updater = snap.updater(sim.spawn("su"), 0)
        snap_scanner = snap.scanner(sim.spawn("ss"), 0)
        snap_auditor = snap.auditor(sim.spawn("sa"))
        sim.add_program("rw", [reg_writer.write_op("r-val")])
        sim.add_program("rr", [reg_reader.read_op(), reg_reader.read_op()])
        sim.add_program("ra", [reg_auditor.audit_op()])
        sim.add_program("su", [snap_updater.update_op("s-val")])
        sim.add_program("ss", [snap_scanner.scan_op()])
        sim.add_program("sa", [snap_auditor.audit_op()])
        history = sim.run()
        assert history.pending_operations() == []
        assert check_audit_exactness(history, reg) == []
        reg_reads = {
            op.result for op in history.operations(pid="rr")
        }
        assert reg_reads <= {"r-init", "r-val"}
        snap_scans = {
            op.result for op in history.operations(pid="ss")
        }
        assert snap_scans <= {("s-init",), ("s-val",)}


class TestLongRunning:
    def test_hundred_epochs_stay_exact(self):
        sim = Simulation()
        reg = AuditableRegister(num_readers=2, initial=0)
        writer = reg.writer(sim.spawn("w"))
        r0 = reg.reader(sim.spawn("r0"), 0)
        auditor = reg.auditor(sim.spawn("a"))
        for k in range(100):
            sim.add_program("w", [writer.write_op(k)])
            sim.run_process("w")
            if k % 3 == 0:
                sim.add_program("r0", [r0.read_op()])
                sim.run_process("r0")
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        report = sim.history.operations(name="audit")[-1].result
        assert report == frozenset(
            (0, k) for k in range(100) if k % 3 == 0
        )
        assert check_audit_exactness(sim.history, reg) == []

    def test_interleaved_full_stack_linearizable(self):
        sim = Simulation(schedule=RandomSchedule(99))
        reg = AuditableRegister(num_readers=2, initial="v0")
        handles = {
            "r0": reg.reader(sim.spawn("r0"), 0),
            "r1": reg.reader(sim.spawn("r1"), 1),
            "w0": reg.writer(sim.spawn("w0")),
            "w1": reg.writer(sim.spawn("w1")),
            "a0": reg.auditor(sim.spawn("a0")),
        }
        sim.add_program("r0", [handles["r0"].read_op() for _ in range(3)])
        sim.add_program("r1", [handles["r1"].read_op() for _ in range(3)])
        sim.add_program("w0", [handles["w0"].write_op(f"a{k}") for k in range(2)])
        sim.add_program("w1", [handles["w1"].write_op(f"b{k}") for k in range(2)])
        sim.add_program("a0", [handles["a0"].audit_op() for _ in range(2)])
        history = sim.run()
        spec = auditable_register_spec("v0", {"r0": 0, "r1": 1})
        assert check_history(history.operations(), spec).ok
