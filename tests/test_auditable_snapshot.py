"""Tests for Algorithm 3 (auditable snapshot)."""

from dataclasses import replace

import pytest

from repro import Simulation
from repro.core import AuditableSnapshot
from repro.analysis import (
    check_audit_exactness,
    check_history,
    snapshot_spec,
    strip_version,
)
from repro.sim.events import Response
from repro.workloads.generators import (
    SnapshotWorkload,
    build_snapshot_system,
)


def make_system(components=2, scanners=2, **kwargs):
    sim = Simulation()
    snap = AuditableSnapshot(
        components=components, num_scanners=scanners, initial=0, **kwargs
    )
    updaters = [
        snap.updater(sim.spawn(f"u{i}"), i) for i in range(components)
    ]
    scanners_h = [
        snap.scanner(sim.spawn(f"s{j}"), j) for j in range(scanners)
    ]
    auditor = snap.auditor(sim.spawn("a"))
    return sim, snap, updaters, scanners_h, auditor


def run_one(sim, pid, op):
    sim.add_program(pid, [op])
    sim.run_process(pid)
    return sim.history.operations(pid=pid)[-1].result


class TestSequential:
    def test_scan_initial(self):
        sim, snap, ups, scs, a = make_system()
        assert run_one(sim, "s0", scs[0].scan_op()) == (0, 0)

    def test_update_then_scan(self):
        sim, snap, ups, scs, a = make_system()
        run_one(sim, "u0", ups[0].update_op("x"))
        run_one(sim, "u1", ups[1].update_op("y"))
        assert run_one(sim, "s0", scs[0].scan_op()) == ("x", "y")

    def test_repeated_updates_latest_wins(self):
        sim, snap, ups, scs, a = make_system()
        for k in range(3):
            run_one(sim, "u0", ups[0].update_op(k))
        assert run_one(sim, "s0", scs[0].scan_op()) == (2, 0)

    def test_audit_reports_scan_views(self):
        sim, snap, ups, scs, a = make_system()
        run_one(sim, "u0", ups[0].update_op("x"))
        run_one(sim, "s0", scs[0].scan_op())
        run_one(sim, "u1", ups[1].update_op("y"))
        run_one(sim, "s1", scs[1].scan_op())
        report = run_one(sim, "a", a.audit_op())
        assert report == frozenset(
            {(0, ("x", 0)), (1, ("x", "y"))}
        )

    def test_unscanned_views_not_reported(self):
        sim, snap, ups, scs, a = make_system()
        run_one(sim, "u0", ups[0].update_op("x"))
        run_one(sim, "u0", ups[0].update_op("z"))
        run_one(sim, "s0", scs[0].scan_op())
        report = run_one(sim, "a", a.audit_op())
        # Only the view actually scanned is reported -- the ("x", 0)
        # intermediate state never appears.
        assert report == frozenset({(0, ("z", 0))})

    def test_empty_audit(self):
        sim, snap, ups, scs, a = make_system()
        run_one(sim, "u0", ups[0].update_op("x"))
        assert run_one(sim, "a", a.audit_op()) == frozenset()

    def test_component_bounds(self):
        sim = Simulation()
        snap = AuditableSnapshot(components=2, num_scanners=1)
        with pytest.raises(IndexError):
            snap.updater(sim.spawn("u"), 2)

    def test_version_numbers_strictly_increase(self):
        sim, snap, ups, scs, a = make_system()
        run_one(sim, "u0", ups[0].update_op("a"))
        run_one(sim, "u1", ups[1].update_op("b"))
        run_one(sim, "u0", ups[0].update_op("c"))
        pair = snap.M.R.peek().val.value  # (vn, view)
        assert pair[0] == 3  # three updates -> version 3


class TestConcurrent:
    @pytest.mark.parametrize("seed", range(15))
    def test_linearizable_with_exact_audits(self, seed):
        workload = SnapshotWorkload(seed=seed)
        built = build_snapshot_system(workload)
        history = built.run()
        spec = snapshot_spec(
            workload.components, 0,
            built.updater_index, built.scanner_index,
        )
        assert check_history(history.operations(), spec).ok

    @pytest.mark.parametrize("substrate", ["afek", "atomic"])
    def test_substrates_equivalent(self, substrate):
        for seed in range(5):
            built = build_snapshot_system(
                SnapshotWorkload(seed=seed), snapshot_substrate=substrate
            )
            history = built.run()
            assert history.pending_operations() == []
            spec = snapshot_spec(
                2, 0, built.updater_index, built.scanner_index
            )
            assert check_history(history.operations(), spec).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_scans_see_monotone_versions(self, seed):
        """Scans by one scanner observe non-decreasing version numbers
        (a strong-linearizability artefact of the max register)."""
        built = build_snapshot_system(
            SnapshotWorkload(seed=seed, scans_per_scanner=4)
        )
        history = built.run()
        # Recover versions from the scanner's fetch&xor results on M.R.
        for pid in built.scanner_index:
            versions = [
                e.result.val.value[0]
                for e in history.primitive_events(
                    pid=pid,
                    obj_name=built.register.M.R.name,
                    primitive="fetch_xor",
                )
            ]
            assert versions == sorted(versions)


class TestCrashedScanEffective:
    def test_scanner_crash_after_fetch_xor_is_audited(self):
        sim, snap, ups, scs, a = make_system()
        run_one(sim, "u0", ups[0].update_op("x"))
        sim.add_program("s0", [scs[0].scan_op()])
        sim.step_process("s0")  # invocation
        sim.step_process("s0")  # SN.read
        sim.step_process("s0")  # fetch&xor on M.R: scan is effective
        sim.crash("s0")
        report = run_one(sim, "a", a.audit_op())
        assert report == frozenset({(0, ("x", 0))})


class TestLiftedAuditExactness:
    """Snapshot audits report the inner max register's pairs with the
    version stripped (Theorem 12): the batch oracle of ``M``, lifted by
    :func:`strip_version`."""

    @pytest.mark.parametrize("substrate", ["afek", "atomic"])
    def test_sweep_histories_are_exact(self, substrate):
        for seed in range(8):
            built = build_snapshot_system(
                SnapshotWorkload(seed=seed), snapshot_substrate=substrate
            )
            history = built.run()
            assert history.complete_operations(name="audit")
            assert check_audit_exactness(
                history, built.register.M, lift=strip_version
            ) == []

    def test_lift_is_what_makes_them_exact(self):
        built = build_snapshot_system(SnapshotWorkload(seed=0))
        history = built.run()
        assert check_audit_exactness(history, built.register.M)

    def test_extra_reported_pair_is_flagged(self):
        built = build_snapshot_system(SnapshotWorkload(seed=0))
        history = built.run()
        # Tamper with the recorded response event, which is what the
        # oracle reads.
        position, response = [
            (position, event) for position, event in enumerate(history.events)
            if isinstance(event, Response) and event.op_name == "audit"
        ][-1]
        bogus = (0, (99, 99))
        history.events[position] = replace(
            response, result=frozenset(response.result) | {bogus}
        )
        violations = check_audit_exactness(
            history, built.register.M, lift=strip_version
        )
        assert len(violations) == 1
        assert violations[0].extra == frozenset({bogus})
        assert not violations[0].missing
