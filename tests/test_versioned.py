"""Tests for versioned types and their auditable transformation
(Theorem 13)."""

import pytest

from repro import Simulation
from repro.analysis import check_history, versioned_spec
from repro.core.versioned import (
    AtomicVersionedObject,
    AuditableVersioned,
    counter_spec,
    kv_store_spec,
    logical_clock_spec,
)
from repro.sim.process import Op
from repro.sim.runner import Simulation
from repro.sim.scheduler import RandomSchedule


class TestTypeSpecs:
    def test_counter(self):
        spec = counter_spec()
        q = spec.initial_state
        q = spec.apply_update(3, q)
        q = spec.apply_update(-1, q)
        assert spec.read_out(q) == 2

    def test_logical_clock(self):
        spec = logical_clock_spec()
        q = spec.initial_state
        q = spec.apply_update(5, q)  # max(0,5)+1 = 6
        q = spec.apply_update(2, q)  # max(6,2)+1 = 7
        assert spec.read_out(q) == 7

    def test_kv_store(self):
        spec = kv_store_spec()
        q = spec.initial_state
        q = spec.apply_update(("b", 2), q)
        q = spec.apply_update(("a", 1), q)
        q = spec.apply_update(("b", 3), q)
        assert spec.read_out(q) == (("a", 1), ("b", 3))


class TestAtomicVersionedObject:
    def test_version_increases_per_update(self):
        obj = AtomicVersionedObject("T", counter_spec())
        sim = Simulation()
        sim.spawn("p")

        def program():
            out0 = yield from obj.read()
            yield from obj.update(5)
            out1 = yield from obj.read()
            yield from obj.update(2)
            out2 = yield from obj.read()
            return (out0, out1, out2)

        sim.add_program("p", [Op("prog", program)])
        sim.run()
        out0, out1, out2 = sim.history.operations()[-1].result
        assert out0 == (0, 0)
        assert out1 == (5, 1)
        assert out2 == (7, 2)


def build_auditable(tspec, updates, seed=None):
    schedule = RandomSchedule(seed) if seed is not None else None
    sim = Simulation(schedule=schedule) if schedule else Simulation()
    obj = AuditableVersioned(tspec, num_readers=2)
    r0 = obj.reader(sim.spawn("r0"), 0)
    r1 = obj.reader(sim.spawn("r1"), 1)
    u0 = obj.updater(sim.spawn("u0"))
    u1 = obj.updater(sim.spawn("u1"))
    auditor = obj.auditor(sim.spawn("a"))
    return sim, obj, (r0, r1), (u0, u1), auditor


class TestAuditableCounter:
    def test_sequential_total(self):
        sim, obj, (r0, _), (u0, _), auditor = build_auditable(
            counter_spec(), []
        )
        for delta in (3, 4):
            sim.add_program("u0", [u0.update_op(delta)])
            sim.run_process("u0")
        sim.add_program("r0", [r0.read_op()])
        sim.run_process("r0")
        assert sim.history.operations(pid="r0")[-1].result == 7
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        assert sim.history.operations(pid="a")[-1].result == frozenset(
            {(0, 7)}
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_concurrent_linearizable(self, seed):
        import random

        rng = random.Random(seed)
        sim, obj, readers, updaters, auditor = build_auditable(
            counter_spec(), [], seed=seed
        )
        reader_index = {"r0": 0, "r1": 1}
        for j, r in enumerate(readers):
            sim.add_program(f"r{j}", [r.read_op() for _ in range(3)])
        for i, u in enumerate(updaters):
            sim.add_program(
                f"u{i}",
                [u.update_op(rng.randrange(1, 5)) for _ in range(2)],
            )
        sim.add_program("a", [auditor.audit_op()])
        history = sim.run()
        spec = versioned_spec(counter_spec(), reader_index)
        assert check_history(history.operations(), spec).ok


class TestAuditableKV:
    def test_kv_reads_and_audit(self):
        sim, obj, (r0, r1), (u0, u1), auditor = build_auditable(
            kv_store_spec(), []
        )
        sim.add_program("u0", [u0.update_op(("x", 1))])
        sim.run_process("u0")
        sim.add_program("r0", [r0.read_op()])
        sim.run_process("r0")
        sim.add_program("u1", [u1.update_op(("y", 2))])
        sim.run_process("u1")
        sim.add_program("r1", [r1.read_op()])
        sim.run_process("r1")
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        report = sim.history.operations(pid="a")[-1].result
        assert report == frozenset(
            {(0, (("x", 1),)), (1, (("x", 1), ("y", 2)))}
        )


class TestAuditableLogicalClock:
    @pytest.mark.parametrize("seed", range(6))
    def test_concurrent_linearizable(self, seed):
        sim, obj, readers, updaters, auditor = build_auditable(
            logical_clock_spec(), [], seed=seed
        )
        reader_index = {"r0": 0, "r1": 1}
        for j, r in enumerate(readers):
            sim.add_program(f"r{j}", [r.read_op() for _ in range(2)])
        for i, u in enumerate(updaters):
            sim.add_program(f"u{i}", [u.update_op(i * 3) for _ in range(2)])
        sim.add_program("a", [auditor.audit_op()])
        history = sim.run()
        spec = versioned_spec(logical_clock_spec(), reader_index)
        assert check_history(history.operations(), spec).ok

    def test_clock_monotone_for_one_reader(self):
        sim, obj, (r0, _), (u0, _), auditor = build_auditable(
            logical_clock_spec(), []
        )
        observed = []
        for _ in range(3):
            sim.add_program("u0", [u0.update_op(0)])
            sim.run_process("u0")
            sim.add_program("r0", [r0.read_op()])
            sim.run_process("r0")
            observed.append(sim.history.operations(pid="r0")[-1].result)
        assert observed == sorted(observed)
        assert observed[-1] == 3
