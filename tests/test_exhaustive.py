"""Tests for the exhaustive interleaving explorer: raw enumeration
(``repro.mc.explore`` with reduction off), so every
interleaving is counted and checked individually."""

import pytest

from repro.mc import ExplorationBudgetExceeded, count_interleavings, explore
from repro.memory.register import AtomicRegister
from repro.sim.process import Op
from repro.sim.runner import Simulation


def two_process_factory(steps_a=2, steps_b=2):
    def factory():
        sim = Simulation()
        reg = AtomicRegister("x", 0)

        def spin(n):
            def gen():
                for _ in range(n):
                    yield from reg.read()

            return gen

        sim.spawn("a")
        sim.spawn("b")
        sim.add_program("a", [Op("spin", spin(steps_a))])
        sim.add_program("b", [Op("spin", spin(steps_b))])
        return sim, reg

    return factory


class TestEnumeration:
    def test_counts_match_combinatorics(self):
        # Two processes with k primitive steps each (plus an invocation
        # step each): C(2(k+1), k+1) interleavings.
        import math

        for k in (1, 2, 3):
            n = k + 1  # invocation counts as a scheduled step
            expected = math.comb(2 * n, n)
            assert count_interleavings(two_process_factory(k, k)) == expected

    def test_single_process_has_one_execution(self):
        def factory():
            sim = Simulation()
            reg = AtomicRegister("x", 0)

            def gen():
                yield from reg.read()

            sim.spawn("a")
            sim.add_program("a", [Op("op", gen)])
            return sim, reg

        assert count_interleavings(factory) == 1

    def test_check_called_per_execution(self):
        seen = []
        explore(
            two_process_factory(1, 1),
            lambda sim, ctx: seen.append(len(sim.history.events)) or None,
            reduce=False,
        )
        assert len(seen) == 6  # C(4, 2)

    def test_violations_collected_not_raised(self):
        report = explore(
            two_process_factory(1, 1),
            lambda sim, ctx: "bad execution",
            reduce=False,
        )
        assert not report.ok
        assert len(report.violations) == 6
        assert "bad execution" in report.violations[0]

    def test_check_exceptions_recorded(self):
        def check(sim, ctx):
            raise ValueError("boom")

        report = explore(
            two_process_factory(1, 1), check,
            reduce=False,
        )
        assert all("ValueError: boom" in v for v in report.violations)

    def test_execution_budget(self):
        with pytest.raises(ExplorationBudgetExceeded):
            explore(
                two_process_factory(4, 4),
                lambda sim, ctx: None,
                max_executions=5,
                reduce=False,
            )

    def test_depth_budget(self):
        with pytest.raises(ExplorationBudgetExceeded):
            explore(
                two_process_factory(10, 10),
                lambda sim, ctx: None,
                max_depth=3,
                reduce=False,
            )


class TestE13Driver:
    def test_e13_passes(self):
        from repro.harness.experiment import run
        import repro.harness.experiments  # noqa: F401

        result = run("E13")
        assert result.ok, result.render()
        # The known interleaving counts are themselves a regression
        # oracle for the algorithm's step structure.
        counts = {
            row["scenario"]: row["interleavings"] for row in result.rows
        }
        assert counts["Alg1: 1 write || 1 read"] == 320
        assert counts["Alg1: 2 reads (after a write)"] == 70
        assert counts["Alg2: 1 writeMax || 1 read"] == 835
