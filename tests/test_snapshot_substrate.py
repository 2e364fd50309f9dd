"""Tests for the non-auditable snapshot substrates (Afek et al.)."""

import pytest

from repro.analysis import PENDING, SeqSpec, check_history
from repro.sim.process import Op
from repro.sim.runner import Simulation
from repro.sim.scheduler import RandomSchedule
from repro.substrates.snapshot import (
    AfekSnapshot,
    AtomicSnapshot,
    make_snapshot,
)


def plain_snapshot_spec(components, initial, updater_index):
    """Sequential spec of a plain (non-auditable) snapshot."""

    def apply(state, op_name, args, result, pid):
        if op_name == "update":
            # Substrate updates carry (component, value) args.
            i, value = args[0], args[1]
            return state[:i] + (value,) + state[i + 1:]
        if op_name == "scan":
            if result is PENDING or result == state:
                return state
            return None
        return None

    return SeqSpec("snapshot", (initial,) * components, apply)


def run_random_workload(snapshot, seed, updates=2, scans=3):
    sim = Simulation(schedule=RandomSchedule(seed))
    n = snapshot.components
    updater_index = {}
    for i in range(n):
        pid = f"u{i}"
        sim.spawn(pid)
        updater_index[pid] = i
        sim.add_program(
            pid,
            [
                Op("update", snapshot.update, (i, f"u{i}-{k}"))
                for k in range(updates)
            ],
        )
    for j in range(2):
        pid = f"s{j}"
        sim.spawn(pid)
        sim.add_program(
            pid, [Op("scan", snapshot.scan) for _ in range(scans)]
        )
    history = sim.run()
    return history, updater_index


class TestSequential:
    @pytest.mark.parametrize("kind", ["afek", "atomic"])
    def test_scan_initial(self, kind):
        sim = Simulation()
        snap = make_snapshot(kind, "S", 3, initial=0)
        sim.spawn("p")
        sim.add_program("p", [Op("scan", snap.scan)])
        sim.run()
        assert sim.history.operations()[-1].result == (0, 0, 0)

    @pytest.mark.parametrize("kind", ["afek", "atomic"])
    def test_update_then_scan(self, kind):
        sim = Simulation()
        snap = make_snapshot(kind, "S", 2, initial=None)
        sim.spawn("p")
        sim.add_program(
            "p",
            [
                Op("update", snap.update, (0, "a")),
                Op("update", snap.update, (1, "b")),
                Op("scan", snap.scan),
            ],
        )
        sim.run()
        assert sim.history.operations()[-1].result == ("a", "b")

    def test_update_component_bounds(self):
        snap = AfekSnapshot("S", 2)
        sim = Simulation()
        sim.spawn("p")
        sim.add_program("p", [Op("update", snap.update, (2, "x"))])
        with pytest.raises(IndexError):
            sim.run()


class TestAfekLinearizability:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_executions_linearizable(self, seed):
        snap = AfekSnapshot("S", 2, initial=0)
        history, updater_index = run_random_workload(snap, seed)
        spec = plain_snapshot_spec(2, 0, updater_index)
        ops = history.operations()
        assert check_history(ops, spec).ok

    @pytest.mark.parametrize("seed", range(10))
    def test_three_components(self, seed):
        snap = AfekSnapshot("S", 3, initial=0)
        history, updater_index = run_random_workload(
            snap, seed, updates=1, scans=2
        )
        spec = plain_snapshot_spec(3, 0, updater_index)
        ops = history.operations()
        assert check_history(ops, spec).ok


class TestAfekMechanics:
    def test_double_collect_on_quiet_snapshot(self):
        snap = AfekSnapshot("S", 2, initial=0)
        sim = Simulation()
        sim.spawn("p")
        sim.add_program("p", [Op("scan", snap.scan)])
        sim.run()
        # Quiet snapshot: exactly two collects (2n reads).
        assert len(sim.history.primitive_events(pid="p")) == 4

    def test_borrowed_view_when_updater_races(self):
        """A scanner starved by a double-moving updater borrows the
        updater's embedded view instead of looping forever."""
        snap = AfekSnapshot("S", 1, initial=0)
        sim = Simulation()
        sim.spawn("scanner")
        sim.spawn("updater")
        sim.add_program("scanner", [Op("scan", snap.scan)])
        sim.add_program(
            "updater",
            [Op("update", snap.update, (0, k)) for k in range(4)],
        )
        # Interleave: scanner collects once, then the updater performs
        # two full updates, then the scanner continues.
        sim.step_process("scanner")  # invocation
        sim.step_process("scanner")  # first collect (n=1 read)
        sim.run_process("updater", ops=2)
        sim.run_process("scanner")
        result = sim.history.operations(pid="scanner")[-1].result
        assert result in ((0,), (1,))  # a view within the interval
        sim.run()
        assert sim.history.pending_operations() == []

    def test_update_embeds_scan(self):
        snap = AfekSnapshot("S", 2, initial=0)
        sim = Simulation()
        sim.spawn("p")
        sim.add_program("p", [Op("update", snap.update, (0, "x"))])
        sim.run()
        cell = snap._regs[0].peek()
        assert cell.data == "x"
        assert cell.seq == 1
        assert cell.view == (0, 0)  # view scanned before the write


class TestAtomicSnapshot:
    def test_peek(self):
        snap = AtomicSnapshot("S", 2, initial="i")
        assert snap.peek() == ("i", "i")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_snapshot("bogus", "S", 2)
