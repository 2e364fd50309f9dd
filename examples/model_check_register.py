"""Model checking a register scenario: a repro.mc walkthrough.

The seed sweeps *sample* the execution space; the model checker
*exhausts* it.  This script walks through the three ways to use it:

1. verify a paper scenario over every interleaving (reduced);
2. compare against the raw enumeration to see partial-order reduction
   at work;
3. hit an execution budget on purpose and use the partial report.

Run with ``PYTHONPATH=src python examples/model_check_register.py``.
"""

from repro.mc import ExplorationBudgetExceeded, explore
from repro.mc.scenarios import get_scenario
from repro.memory.register import AtomicRegister
from repro.sim.process import Op
from repro.sim.runner import Simulation


def main() -> None:
    # -- 1. a paper scenario, every interleaving ------------------------
    # "alg1-w1-r1": one write racing one read on the auditable register
    # of Algorithm 1, with a post-hoc audit checked after every
    # explored execution (Theorem 8 + Lemma 5 oracles).
    factory, check = get_scenario("alg1-w1-r1")()
    reduced = explore(factory, check)
    print("== Algorithm 1: 1 write || 1 read ==")
    print(f"reduced exploration: {reduced.executions} executions "
          f"({reduced.distinct_states} states), "
          f"violations: {len(reduced.violations)}")

    # -- 2. the same scenario without reduction -------------------------
    factory, check = get_scenario("alg1-w1-r1")()
    baseline = explore(factory, check, reduce=False)
    print(f"raw enumeration:     {baseline.executions} executions")
    print(f"reduction factor:    "
          f"{baseline.executions / reduced.executions:.1f}x")
    # Soundness in action: both modes judge the same violation set.
    assert reduced.verdicts == baseline.verdicts
    print("verdict sets match:  True")

    # -- 3. a custom scenario and a deliberate budget -------------------
    # Two writers race value sequences onto one plain register; the
    # property is a function of the final state, so any interleaving
    # ending in a "lost" value is a violation.
    def factory2():
        sim = Simulation()
        reg = AtomicRegister("x", 0)

        def writer(values):
            def gen():
                for value in values:
                    yield from reg.write(value)
            return gen

        sim.spawn("a").assign([Op("wa", writer((1, 3)))])
        sim.spawn("b").assign([Op("wb", writer((2,)))])
        return sim, reg

    def check2(sim, reg):
        return "lost update" if reg.peek() == 2 else None

    print()
    print("== custom scenario: lost-update hunt ==")
    report = explore(factory2, check2)
    print(f"explored {report.executions} executions, "
          f"distinct verdicts: {sorted(report.verdicts)}")
    print(f"first violating schedule: "
          f"{report.violations[0] if report.violations else None}")

    # Budgets raise, but the exception carries the partial report --
    # usable evidence even when the scenario is too large to finish.
    try:
        explore(factory2, check2, max_executions=3, reduce=False)
    except ExplorationBudgetExceeded as exc:
        print()
        print(f"budget tripped as expected: {exc}")
        print(f"partial report still covers "
              f"{exc.report.executions} executions "
              f"({len(exc.report.violations)} violations found so far)")


if __name__ == "__main__":
    main()
