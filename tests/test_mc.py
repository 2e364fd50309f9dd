"""Tests for the model-checking subsystem (repro.mc).

The load-bearing properties:

- checkpoint/restore round-trips a live simulation exactly (state,
  history, determinism of the continuation);
- POR soundness: on small scenarios -- including ones *with*
  violations -- the reduced explorer reports exactly the same violation
  set as the raw enumeration;
- the sleep-set theorem: the reduced search never visits two
  trace-equivalent prefixes (so a trace-keyed state memo could never
  hit), and every registered scenario's counts are pinned exactly;
- budget exhaustion still surfaces a usable partial report;
- fanning the frontier subtrees out over forked children changes no
  report field, violation order and budget partial reports included,
  at any frontier depth, and leaves no child process behind.
"""

import itertools
import math
import os
import threading

import pytest

from repro.mc import (
    ExplorationBudgetExceeded,
    count_interleavings,
    explore,
)
from repro.mc import explorer as explorer_module
from repro.mc import fanout
from repro.mc.explorer import FRONTIER_DEPTH, _Explorer, _Plan
from repro.mc.independence import foata_insert
from repro.mc.scenarios import (
    E13_SUITE,
    get_scenario,
    register_scenario_check,
    register_scenario_factory,
    scenario_names,
)
from repro.memory.register import AtomicRegister
from repro.sim.checkpoint import SimulationCheckpointer
from repro.sim.process import Op
from repro.sim.runner import Simulation


def counter_scenario(writes_a=(1,), writes_b=(2,)):
    """Two processes writing value sequences to one shared register."""

    def factory():
        sim = Simulation()
        reg = AtomicRegister("x", 0)

        def writer(values):
            def gen():
                for value in values:
                    yield from reg.write(value)

            return gen

        sim.spawn("a")
        sim.spawn("b")
        sim.add_program("a", [Op("wa", writer(writes_a))])
        sim.add_program("b", [Op("wb", writer(writes_b))])
        return sim, reg

    return factory


def disjoint_scenario(steps=2):
    """Two processes spinning on *distinct* registers (fully
    independent: the reduced tree collapses to one execution)."""

    def factory():
        sim = Simulation()
        rx = AtomicRegister("x", 0)
        ry = AtomicRegister("y", 0)

        def spin(reg, n):
            def gen():
                for _ in range(n):
                    yield from reg.read()

            return gen

        sim.spawn("a")
        sim.spawn("b")
        sim.add_program("a", [Op("sa", spin(rx, steps))])
        sim.add_program("b", [Op("sb", spin(ry, steps))])
        return sim, (rx, ry)

    return factory


class TestCheckpointRestore:
    def test_roundtrip_restores_state_and_history(self):
        factory, _ = get_scenario("alg1-w1-r1")()
        sim, reg = factory()
        ckpt = SimulationCheckpointer(sim, roots=[reg])
        mark = ckpt.capture()
        word0 = reg.R.peek()
        events0 = len(sim.history.events)

        # run to completion, then rewind
        while sim.runnable():
            ckpt.step(sorted(p.pid for p in sim.runnable())[0])
        assert len(sim.history.events) > events0
        ckpt.restore(mark)
        assert reg.R.peek() == word0
        assert len(sim.history.events) == events0
        assert sim.steps_taken == 0

    def test_restored_continuation_is_identical(self):
        factory, _ = get_scenario("alg1-w1-r1")()
        sim, reg = factory()
        ckpt = SimulationCheckpointer(sim, roots=[reg])

        def drive(order):
            log = []
            for pid in order:
                if ckpt.step(pid):
                    log.append(repr(sim.history.events[-1]))
            return log

        drive(["w0", "r0", "w0"])
        mark = ckpt.capture()
        tail = ["w0", "r0", "w0", "r0", "w0"]
        first = drive(tail)
        ckpt.restore(mark)
        second = drive(tail)
        assert first == second

    def test_mid_operation_handle_state_rewinds(self):
        # A completed read updates the reader handle's prev_sn; a
        # restore across that read must rewind it.
        factory, _ = get_scenario("alg1-r2-prewrite")()
        sim, reg = factory()
        ckpt = SimulationCheckpointer(sim, roots=[reg])
        mark = ckpt.capture()
        while sim.runnable():
            ckpt.step(sorted(p.pid for p in sim.runnable())[0])
        reads = sim.history.complete_operations(name="read")
        assert reads
        ckpt.restore(mark)
        # exploring a different order still reaches clean completion
        while sim.runnable():
            ckpt.step(sorted(p.pid for p in sim.runnable())[-1])
        assert sim.history.complete_operations(name="read")


class TestRawEnumeration:
    def test_counts_match_combinatorics(self):
        # Two writers with one op of k primitives each (plus an
        # invocation step each): C(2(k+1), k+1) interleavings.
        for k in (1, 2, 3):
            n = k + 1
            factory = counter_scenario(tuple(range(k)), tuple(range(k)))
            assert count_interleavings(factory) == math.comb(2 * n, n)

    def test_disjoint_registers_collapse_to_precedence_classes(self):
        factory = disjoint_scenario(2)
        raw = count_interleavings(factory)
        reduced = explore(
            factory, lambda sim, ctx: None
        ).executions
        assert raw == math.comb(6, 3)
        # All primitive steps commute (distinct registers), but the
        # history-aware relation keeps response-vs-invocation order
        # observable, so exactly the three real-time precedence
        # classes survive: a<b, b<a, overlapping.
        assert reduced == 3


class TestPORSoundness:
    """Reduced and raw exploration must report identical verdict sets
    -- including on scenarios *with* violations."""

    def assert_same_verdicts(self, factory, check):
        baseline = explore(factory, check, reduce=False)
        reduced = explore(factory, check)
        assert reduced.verdicts == baseline.verdicts
        assert reduced.ok == baseline.ok
        return baseline, reduced

    def test_final_value_race_verdicts(self):
        # Both final values occur in some interleaving; the reduced
        # explorer must report both verdicts.
        factory = counter_scenario((1,), (2,))

        def check(sim, reg):
            return f"final={reg.peek()}"

        baseline, reduced = self.assert_same_verdicts(factory, check)
        assert baseline.verdicts == {"final=1", "final=2"}
        assert reduced.executions < baseline.executions

    def test_partial_violation_set(self):
        # Violating only on one outcome: the reduced run must still
        # find it (and nothing else).
        factory = counter_scenario((1, 3), (2,))

        def check(sim, reg):
            return "lost update" if reg.peek() == 2 else None

        baseline, reduced = self.assert_same_verdicts(factory, check)
        assert baseline.verdicts == {"lost update"}
        assert not baseline.ok and not reduced.ok

    def test_exceptions_recorded_identically(self):
        factory = counter_scenario((1,), (2,))

        def check(sim, reg):
            if reg.peek() == 1:
                raise ValueError("boom")
            return None

        baseline, reduced = self.assert_same_verdicts(factory, check)
        assert baseline.verdicts == {"ValueError: boom"}

    @pytest.mark.parametrize(
        "name", ["alg1-w1-r1", "alg1-silent-read", "alg2-w1-r1"]
    )
    def test_paper_scenarios_clean_in_both_modes(self, name):
        factory, check = get_scenario(name)()
        baseline = explore(factory, check, reduce=False)
        factory, check = get_scenario(name)()
        reduced = explore(factory, check)
        assert baseline.ok and reduced.ok
        assert reduced.verdicts == baseline.verdicts == frozenset()
        # the acceptance bar: at least 5x fewer executions visited
        assert baseline.executions >= 5 * reduced.executions

    def test_converging_states_keep_history_dependent_verdicts(self):
        # Two processes write the SAME value, so both orders converge
        # to an identical configuration -- but the orders are distinct
        # traces (dependent steps), and a history-dependent check
        # judges them differently.  Any state-keyed merge would lose
        # one verdict; both modes must report the raw baseline's.
        def factory():
            sim = Simulation()
            reg = AtomicRegister("x", 0)
            spare = AtomicRegister("y", 0)

            def write_seven():
                def gen():
                    yield from reg.write(7)
                return gen

            def spin():
                def gen():
                    yield from spare.write(1)
                    yield from spare.write(2)
                return gen

            sim.spawn("a").assign([Op("wa", write_seven())])
            sim.spawn("b").assign([Op("wb", write_seven())])
            sim.spawn("c").assign([Op("sc", spin())])
            return sim, reg

        def check(sim, reg):
            a = sim.history.operations(pid="a")[0]
            b = sim.history.operations(pid="b")[0]
            return "b-before-a" if b.precedes(a) else None

        baseline = explore(factory, check, reduce=False)
        assert "b-before-a" in baseline.verdicts
        for reduce in (False, True):
            report = explore(factory, check, reduce=reduce)
            assert report.verdicts == baseline.verdicts

    def test_deep_scenarios_hit_budget_not_recursion_limit(self):
        def factory():
            sim = Simulation()
            reg = AtomicRegister("x", 0)

            def gen():
                for _ in range(1500):
                    yield from reg.read()

            sim.spawn("a").assign([Op("deep", gen)])
            return sim, reg

        report = explore(factory, lambda sim, ctx: None, max_depth=5000)
        assert report.executions == 1
        assert report.max_depth == 1501


class _FoataExplorer(_Explorer):
    """Records the Foata normal form of every prefix the DFS visits."""

    def __init__(self, sim, context, check):
        super().__init__(sim, context, check, 200_000, 200, True)
        self.forms = []  # every visited node's form, in visit order
        self._path = []  # forms of the nodes on the current DFS path
        self._last = None  # the step that led to the node being entered

    def _step(self, pid, vault_snap):
        self._last = super()._step(pid, vault_snap)
        return self._last

    def _node(self, prefix, sleep):
        form = foata_insert(self._path[-1], self._last) if prefix else ()
        self.forms.append(form)
        self._path.append(form)
        super()._node(prefix, sleep)
        self._path.pop()


# (executions, distinct_states, restores, sleep_pruned, len(verdicts))
# of the reduced search on every registered scenario.
GOLDEN_COUNTS = {
    "alg1-r1-a1-prewrite": (7, 40, 11, 5, 0),
    "alg1-r2-prewrite": (12, 46, 13, 2, 0),
    "alg1-silent-read": (5, 39, 4, 0, 0),
    "alg1-w1-a1": (9, 51, 11, 3, 0),
    "alg1-w1-r1": (16, 102, 17, 2, 0),
    "alg1-w2": (44, 198, 65, 22, 0),
    "alg2-w1-r1": (16, 126, 17, 2, 0),
    "alg2-w2": (354, 1716, 587, 234, 0),
    "buggy-counter": (48, 160, 76, 29, 1),
    "buggy-counter-deep": (1168, 5036, 2079, 912, 1),
    "buggy-maxreg": (48, 157, 63, 16, 1),
    "buggy-maxreg-deep": (3156, 12576, 5971, 2816, 1),
}


# Algorithm 1 with two readers and one writer, in the same tuple form.
# Not a registered scenario (the perfbench explore workload builds it
# directly), yet about three quarters of that workload's states.
TWO_READER_COUNTS = (1092, 6587, 1241, 150, 0)


def two_reader_scenario():
    return register_scenario_factory(2, 1, 0), register_scenario_check


class TestSleepSetTheorem:
    """A sleep-set DFS never visits two trace-equivalent prefixes.

    Proof sketch: if two visited prefixes were equivalent and first
    diverged at a node through ``a`` (explored first) and ``b``, then
    ``a`` is independent of every step before it on the second path,
    so it stays asleep there and can never run.  This is why the
    explorer keeps no Foata-keyed state memo: it could never hit.
    """

    @pytest.mark.parametrize("name", scenario_names())
    def test_no_two_visited_nodes_share_a_foata_form(self, name):
        factory, check = get_scenario(name)()
        sim, context = factory()
        explorer = _FoataExplorer(sim, context, check)
        report = explorer.run()
        # Every visited node: branching or chain states, leaves and
        # sleep-pruned nodes.
        assert len(explorer.forms) == (
            report.distinct_states + report.executions
            + report.sleep_pruned
        )
        assert len(set(explorer.forms)) == len(explorer.forms)

    def test_golden_table_covers_every_scenario(self):
        assert sorted(GOLDEN_COUNTS) == sorted(scenario_names())

    @pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
    def test_counts_are_pinned(self, name):
        factory, check = get_scenario(name)()
        report = explore(factory, check)
        assert (
            report.executions, report.distinct_states, report.restores,
            report.sleep_pruned, len(report.verdicts),
        ) == GOLDEN_COUNTS[name]
        assert report.fingerprint_hits == 0

    def test_two_reader_counts_are_pinned(self):
        report = explore(*two_reader_scenario())
        assert (
            report.executions, report.distinct_states, report.restores,
            report.sleep_pruned, len(report.verdicts),
        ) == TWO_READER_COUNTS


class TestBudgets:
    def test_execution_budget_partial_report(self):
        factory = counter_scenario((1, 2, 3, 4), (5, 6, 7, 8))
        with pytest.raises(ExplorationBudgetExceeded) as exc_info:
            explore(factory, lambda sim, ctx: "bad",
                    max_executions=5, reduce=False)
        report = exc_info.value.report
        assert report is not None
        assert report.executions == 6  # budget checked after counting
        assert len(report.violations) >= 5
        assert "schedule" in report.violations[0]

    def test_depth_budget_partial_report(self):
        factory = counter_scenario(tuple(range(10)), tuple(range(10)))
        with pytest.raises(ExplorationBudgetExceeded) as exc_info:
            explore(factory, lambda sim, ctx: None, max_depth=3)
        assert exc_info.value.report is not None
        assert "deeper than 3" in str(exc_info.value)


class TestParallelFrontiers:
    """Forked frontier subtrees resume on a fresh system and vault, at
    whatever depth the frontier lies."""

    @pytest.mark.parametrize("name", ["alg1-w2", "alg2-w2"])
    def test_parallel_counts_equal_serial_exactly(self, name, monkeypatch):
        # Subtrees share no state, so fanning out changes no count.
        factory, check = get_scenario(name)()
        serial = report_fields(serial_report(factory, check))
        force_width(monkeypatch, 2)
        monkeypatch.setattr(explorer_module, "FRONTIER_DEPTH", 4)
        assert report_fields(explore(factory, check)) == serial

    def test_frontier_sleep_entries_follow_lazy_cells(self, monkeypatch):
        # Three writers, each on its own lazily materialised cell.  The
        # collecting explorer adopts cells in the order its earlier
        # branches first stepped them; a share resuming a frontier
        # node steps them in another order.  A sleep entry must keep
        # naming its own cell there, or independent writes look
        # dependent (extra executions) or dependent ones independent.
        from repro.memory.array import RegisterArray

        def factory():
            sim = Simulation()
            arr = RegisterArray("arr", default=0)

            def writes(index):
                def gen():
                    yield from arr[index].write(1)
                    yield from arr[index].write(2)

                return gen

            for index, pid in enumerate("abc"):
                sim.spawn(pid)
                sim.add_program(pid, [Op("w", writes(index))])
            return sim, arr

        def check(sim, arr):
            return None

        serial = report_fields(serial_report(factory, check))
        force_width(monkeypatch, 2)
        for depth in range(2, 7):
            monkeypatch.setattr(explorer_module, "FRONTIER_DEPTH", depth)
            assert report_fields(explore(factory, check)) == serial, depth
        assert_no_child_left()


def serial_report(factory, check, reduce=True, max_executions=200_000,
                  max_depth=200):
    """The undivided sleep-set DFS on one live system: the reference
    every fanned-out report must equal."""
    sim, context = factory()
    explorer = _Explorer(
        sim, context, check, max_executions, max_depth, reduce
    )
    try:
        return explorer.run()
    finally:
        sim.release()


def report_fields(report):
    return (
        report.executions, report.distinct_states, report.restores,
        report.sleep_pruned, report.max_depth, report.violation_details,
        report.reduced, report.fingerprint_hits,
    )


def budget_outcome(explore_fn):
    with pytest.raises(ExplorationBudgetExceeded) as exc_info:
        explore_fn()
    return str(exc_info.value), report_fields(exc_info.value.report)


def mixed_depth_scenario():
    """A reader whose operation is one step long or four, depending on
    whether the writer went first: raw executions end both above and
    below the frontier depth, interleaved in DFS order."""

    def factory():
        sim = Simulation()
        x = AtomicRegister("x", 0)
        y = AtomicRegister("y", 0)

        def write():
            yield from x.write(1)

        def read():
            seen = yield from x.read()
            if seen:
                for _ in range(3):
                    yield from y.read()

        sim.spawn("r")
        sim.spawn("w")
        sim.add_program("r", [Op("read", read)])
        sim.add_program("w", [Op("write", write)])
        return sim, x

    return factory


def every_execution_bad(sim, ctx):
    return f"{len(sim.history.events)} events"


def force_width(monkeypatch, width):
    """The fork-safety predicate forced to ``width`` processes, with
    every frontier subtree deferred to the shares (none inline)."""
    monkeypatch.setattr(fanout, "fork_width", lambda: width)
    monkeypatch.setattr(explorer_module, "FORK_AFTER_S", 0.0)


@pytest.fixture(params=[1, 2, 3], ids=["serial", "fork-2", "fork-3"])
def width(request, monkeypatch):
    force_width(monkeypatch, request.param)
    return request.param


class Escaped(BaseException):
    """Not an ``Exception``: the explorer does not record it."""


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFanOut:
    """``explore`` splits the tree at a frontier and shares the subtrees
    out over forked children; every report field must equal the
    undivided serial DFS's, whatever the number of processes."""

    @pytest.mark.parametrize(
        "name", sorted(GOLDEN_COUNTS) + ["alg1-r2-w1"]
    )
    def test_every_field_equals_the_serial_dfs(self, name, monkeypatch):
        factory, check = (
            two_reader_scenario() if name == "alg1-r2-w1"
            else get_scenario(name)()
        )
        serial = report_fields(serial_report(factory, check))
        for forced in (1, 2):
            force_width(monkeypatch, forced)
            assert report_fields(explore(factory, check)) == serial, forced
        assert_no_child_left()

    @pytest.mark.parametrize("name", ["buggy-counter", "alg2-w2"])
    def test_inline_and_deferred_subtrees_mix(self, name, monkeypatch):
        # explore() explores frontier subtrees inline until forking
        # would pay off, then defers the rest: any mix must merge to
        # the serial report.
        force_width(monkeypatch, 2)
        turns = itertools.cycle([False, True, True])
        monkeypatch.setattr(_Explorer, "_defer", lambda self: next(turns))
        factory, check = get_scenario(name)()
        assert report_fields(explore(factory, check)) == report_fields(
            serial_report(factory, check)
        )
        assert budget_outcome(
            lambda: explore(factory, check, max_executions=30)
        ) == budget_outcome(
            lambda: serial_report(factory, check, max_executions=30)
        )

    @pytest.mark.parametrize("reduce", [False, True])
    def test_leaves_above_the_frontier_keep_their_dfs_position(
        self, reduce, width
    ):
        factory = mixed_depth_scenario()
        plan = _Plan.build(factory, every_execution_bad, 200_000, 200,
                           reduce, FRONTIER_DEPTH, defer_after=0.0)
        kinds = [item[0] for item in plan.items]
        assert plan.report.executions > 0 and "subtree" in kinds
        if not reduce:  # a leaf after a subtree: the order is pinned
            assert "leaf" in kinds
        serial = serial_report(factory, every_execution_bad, reduce)
        report = explore(factory, every_execution_bad, reduce=reduce)
        assert report_fields(report) == report_fields(serial)
        assert len(report.violation_details) == report.executions

    @pytest.mark.parametrize("reduce", [False, True])
    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 20, 40])
    def test_budget_partial_report_equals_serial(
        self, reduce, budget, width
    ):
        factory, check = get_scenario("buggy-counter")()
        expected = budget_outcome(lambda: serial_report(
            factory, check, reduce, max_executions=budget,
        ))
        assert budget_outcome(lambda: explore(
            factory, check, max_executions=budget, reduce=reduce,
        )) == expected
        assert_no_child_left()

    @pytest.mark.parametrize("max_depth", [3, 5, 6, 9])
    def test_depth_budget_partial_report_equals_serial(
        self, max_depth, width
    ):
        factory, check = get_scenario("buggy-counter-deep")()
        expected = budget_outcome(lambda: serial_report(
            factory, check, max_depth=max_depth,
        ))
        assert budget_outcome(lambda: explore(
            factory, check, max_depth=max_depth,
        )) == expected

    def test_check_exceptions_are_recorded_as_in_serial(self, width):
        def check(sim, ctx):
            if len(sim.history.events) % 2:
                raise ValueError(f"odd {len(sim.history.events)}")
            return None

        factory = mixed_depth_scenario()
        serial = serial_report(factory, check, reduce=False)
        assert any("ValueError: odd" in v for _, v in
                   serial.violation_details)
        report = explore(factory, check, reduce=False)
        assert report_fields(report) == report_fields(serial)

    def test_child_exception_is_reraised_and_children_reaped(
        self, monkeypatch
    ):
        parent = os.getpid()

        def check(sim, ctx):
            if os.getpid() != parent:
                raise Escaped("raised in a child")
            return None

        force_width(monkeypatch, 2)
        factory, _ = get_scenario("alg2-w2")()
        with pytest.raises(Escaped, match="raised in a child"):
            explore(factory, check)
        assert_no_child_left()

    def test_unpicklable_child_exception_is_still_reported(
        self, monkeypatch
    ):
        class LocalEscape(BaseException):
            pass  # local: pickle cannot name it

        parent = os.getpid()

        def check(sim, ctx):
            if os.getpid() != parent:
                raise LocalEscape("raised in a child")
            return None

        force_width(monkeypatch, 2)
        factory, _ = get_scenario("alg2-w2")()
        with pytest.raises(RuntimeError,
                           match="LocalEscape: raised in a child"):
            explore(factory, check)
        assert_no_child_left()

    def test_parent_exception_reaps_the_children(self, monkeypatch):
        parent = os.getpid()
        calls = []

        def check(sim, ctx):
            calls.append(None)
            if os.getpid() == parent and len(calls) > 40:
                raise KeyboardInterrupt
            return None

        force_width(monkeypatch, 3)
        factory, _ = get_scenario("alg2-w2")()
        with pytest.raises(KeyboardInterrupt):
            explore(factory, check)
        assert_no_child_left()

    def test_fork_is_unsafe_beside_other_threads(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert fanout.fork_width() == 1
            factory, check = get_scenario("buggy-counter")()
            assert report_fields(explore(factory, check)) == (
                report_fields(serial_report(factory, check))
            )
        finally:
            release.set()
            thread.join()


class TestE13Driver:
    def test_e13_reports_reduction_and_matching_verdicts(self):
        from repro.harness.experiment import run
        import repro.harness.experiments  # noqa: F401

        result = run("E13")
        assert result.ok, result.render()
        reductions = {
            row["scenario"]: row for row in result.rows
        }
        total_base = sum(r["interleavings"] for r in reductions.values())
        total_reduced = sum(
            r["explored (POR)"] for r in reductions.values()
        )
        assert total_base >= 5 * total_reduced
