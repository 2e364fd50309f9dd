"""Tests for the journal versioned type and its auditable wrapper."""

import pytest

from repro import AuditableVersioned, Simulation, journal_spec
from repro.analysis import check_history, versioned_spec
from repro.sim.scheduler import RandomSchedule


class TestJournalSpec:
    def test_appends_in_order(self):
        spec = journal_spec()
        q = spec.initial_state
        for entry in ("a", "b", "c"):
            q = spec.apply_update(entry, q)
        assert spec.read_out(q) == ("a", "b", "c")

    def test_windowed_journal_drops_oldest(self):
        spec = journal_spec(window=2)
        q = spec.initial_state
        for entry in ("a", "b", "c"):
            q = spec.apply_update(entry, q)
        assert spec.read_out(q) == ("b", "c")
        assert spec.name == "journal[2]"

    def test_empty_initial(self):
        assert journal_spec().read_out(journal_spec().initial_state) == ()


class TestAuditableJournal:
    def build(self, seed=None):
        schedule = RandomSchedule(seed) if seed is not None else None
        sim = Simulation(schedule=schedule) if schedule else Simulation()
        log = AuditableVersioned(journal_spec(), num_readers=2)
        return sim, log

    def test_sequential_reads_see_prefixes(self):
        sim, log = self.build()
        ingest = log.updater(sim.spawn("u"))
        reader = log.reader(sim.spawn("r0"), 0)
        views = []
        for k in range(3):
            sim.add_program("u", [ingest.update_op(f"e{k}")])
            sim.run_process("u")
            sim.add_program("r0", [reader.read_op()])
            sim.run_process("r0")
            views.append(sim.history.operations(pid="r0")[-1].result)
        assert views == [("e0",), ("e0", "e1"), ("e0", "e1", "e2")]

    def test_audit_reports_views(self):
        sim, log = self.build()
        ingest = log.updater(sim.spawn("u"))
        reader = log.reader(sim.spawn("r0"), 0)
        auditor = log.auditor(sim.spawn("a"))
        sim.add_program("u", [ingest.update_op("x")])
        sim.run_process("u")
        sim.add_program("r0", [reader.read_op()])
        sim.run_process("r0")
        sim.add_program("a", [auditor.audit_op()])
        sim.run_process("a")
        assert sim.history.operations(pid="a")[-1].result == frozenset(
            {(0, ("x",))}
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_concurrent_linearizable(self, seed):
        sim, log = self.build(seed=seed)
        u0 = log.updater(sim.spawn("u0"))
        u1 = log.updater(sim.spawn("u1"))
        r0 = log.reader(sim.spawn("r0"), 0)
        r1 = log.reader(sim.spawn("r1"), 1)
        auditor = log.auditor(sim.spawn("a"))
        sim.add_program("u0", [u0.update_op(f"a{k}") for k in range(2)])
        sim.add_program("u1", [u1.update_op(f"b{k}") for k in range(2)])
        sim.add_program("r0", [r0.read_op() for _ in range(2)])
        sim.add_program("r1", [r1.read_op() for _ in range(2)])
        sim.add_program("a", [auditor.audit_op()])
        history = sim.run()
        spec = versioned_spec(journal_spec(), {"r0": 0, "r1": 1})
        assert check_history(history.operations(), spec).ok

    def test_reader_views_are_prefix_ordered(self):
        # One reader's successive views grow monotonically (versions
        # increase; journal states are prefix-ordered per version).
        sim, log = self.build(seed=3)
        ingest = log.updater(sim.spawn("u"))
        reader = log.reader(sim.spawn("r0"), 0)
        sim.add_program("u", [ingest.update_op(f"e{k}") for k in range(3)])
        sim.add_program("r0", [reader.read_op() for _ in range(3)])
        history = sim.run()
        views = [
            op.result for op in history.operations(pid="r0", name="read")
        ]
        for earlier, later in zip(views, views[1:]):
            assert later[: len(earlier)] == earlier
