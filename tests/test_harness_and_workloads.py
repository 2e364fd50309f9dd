"""Tests for the experiment harness and workload builders."""

import pytest

from repro.harness.experiment import ExperimentResult, registry, run
from repro.harness.tables import render_table
from repro.workloads.generators import (
    RegisterWorkload,
    SnapshotWorkload,
    build_max_register_system,
    build_register_system,
    build_snapshot_system,
)


class TestTables:
    def test_render_basic(self):
        text = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_render_formats_floats_and_bools(self):
        text = render_table([{"v": 0.12345, "ok": True}])
        assert "0.123" in text
        assert "yes" in text

    def test_render_empty(self):
        assert render_table([]) == "(no rows)"

    def test_explicit_columns(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestExperimentResult:
    def test_ok_depends_on_claims(self):
        good = ExperimentResult("X", "t", claims={"c": True})
        bad = ExperimentResult("X", "t", claims={"c": False})
        assert good.ok and not bad.ok

    def test_render_shows_pass_fail(self):
        result = ExperimentResult(
            "X", "title", rows=[{"a": 1}],
            claims={"holds": True, "breaks": False},
            notes="a note",
        )
        text = result.render()
        assert "[PASS] holds" in text
        assert "[FAIL] breaks" in text
        assert "a note" in text

    def test_registry_contains_all_experiments(self):
        import repro.harness.experiments  # noqa: F401 -- registers

        names = set(registry())
        assert {"E1", "E2", "E3", "E4", "E5", "E6", "E7",
                "E8", "E9", "E10", "E11", "E12", "E13"} <= names


class TestExperimentDriversSmall:
    """Small-parameter smoke runs of the drivers (full runs are the
    benchmarks' job)."""

    def test_e1_small(self):
        import repro.harness.experiments  # noqa: F401

        result = run("E1", reader_counts=(1, 2), seeds=range(2))
        assert result.ok
        assert result.rows[0]["adversarial iters"] == 2
        assert result.rows[1]["adversarial iters"] == 3

    def test_e3_small(self):
        import repro.harness.experiments  # noqa: F401

        result = run("E3", trials=3)
        assert result.ok

    def test_e9_small(self):
        import repro.harness.experiments  # noqa: F401

        result = run("E9", seeds=range(10))
        assert result.ok

    def test_e10_small(self):
        import repro.harness.experiments  # noqa: F401

        result = run("E10", trials=2)
        assert result.ok


class TestWorkloadBuilders:
    def test_register_system_deterministic(self):
        def fingerprint(seed):
            built = build_register_system(RegisterWorkload(seed=seed))
            history = built.run()
            return [
                (e.pid, e.obj_name, e.primitive)
                for e in history.primitive_events()
            ]

        assert fingerprint(5) == fingerprint(5)
        assert fingerprint(5) != fingerprint(6)

    def test_register_workload_values_unique(self):
        workload = RegisterWorkload(num_writers=2, writes_per_writer=3)
        values = workload.write_values(0) + workload.write_values(1)
        assert len(set(values)) == len(values)

    def test_register_workload_random_values(self):
        workload = RegisterWorkload(unique_values=False)
        values = workload.write_values(0)
        assert all(isinstance(v, int) for v in values)

    def test_reader_index_map(self):
        built = build_register_system(RegisterWorkload(num_readers=3))
        assert built.reader_index == {"r0": 0, "r1": 1, "r2": 2}

    def test_max_register_system_runs(self):
        built = build_max_register_system(RegisterWorkload(seed=1))
        history = built.run()
        assert history.pending_operations() == []

    def test_snapshot_system_runs(self):
        built = build_snapshot_system(SnapshotWorkload(seed=1))
        history = built.run()
        assert history.pending_operations() == []
        assert built.updater_index and built.scanner_index
