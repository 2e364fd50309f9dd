"""B8 -- model-checking throughput: baseline vs reduced.

The measurements behind the repro.mc design choices:

- *Raw enumeration* (reduce off): every interleaving
  of the 1-write/1-read Algorithm 1 scenario, checked individually, on
  the checkpoint-backtracking engine.
- *Reduced exploration* (sleep sets): the same scenario,
  same verdicts, visiting one representative per Mazurkiewicz trace.
  The >=5x acceptance bar of the E13 suite is asserted here on the
  single scenario too.

``explore`` forks its frontier subtrees out over the available CPUs;
perfbench's ``explore`` workload measures that fan-out end to end.
"""

from __future__ import annotations

from repro.mc import explore
from repro.mc.scenarios import get_scenario

SCENARIO = "alg1-w1-r1"


def test_bench_raw_enumeration(benchmark):
    """Every interleaving of Alg1 1-write/1-read, individually checked."""
    factory, check = get_scenario(SCENARIO)()
    report = benchmark(
        lambda: explore(factory, check, reduce=False)
    )
    assert report.ok
    assert report.executions == 320  # the historical E13 oracle
    benchmark.extra_info["executions"] = report.executions


def test_bench_reduced_exploration(benchmark):
    """POR: same verdicts, >=5x fewer executions."""
    factory, check = get_scenario(SCENARIO)()
    baseline = explore(factory, check, reduce=False)
    factory, check = get_scenario(SCENARIO)()
    report = benchmark(lambda: explore(factory, check))
    assert report.ok
    assert report.verdicts == baseline.verdicts
    assert baseline.executions >= 5 * report.executions
    benchmark.extra_info["executions"] = report.executions
    benchmark.extra_info["reduction"] = (
        f"{baseline.executions / report.executions:.1f}x"
    )
