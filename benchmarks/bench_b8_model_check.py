"""B8 -- model-checking throughput: baseline vs reduced vs parallel.

The measurements behind the repro.mc design choices:

- *Raw enumeration* (reduce off): every interleaving
  of the 1-write/1-read Algorithm 1 scenario, checked individually, on
  the checkpoint-backtracking engine.
- *Reduced exploration* (sleep sets): the same scenario,
  same verdicts, visiting one representative per Mazurkiewicz trace.
  The >=5x acceptance bar of the E13 suite is asserted here on the
  single scenario too.
- *Parallel frontiers*: the reduced exploration of the largest E13
  scenario fanned across workers through the engine.  On a small
  scenario the pool start-up dominates, so the assertion is only
  equality of results; throughput lands in ``extra_info``.
"""

from __future__ import annotations

import os
import time

from conftest import _smoke_gate

from repro.mc import explore
from repro.mc.parallel import explore_parallel
from repro.mc.scenarios import get_scenario

SMOKE = _smoke_gate("BENCH_MC_SMOKE")
SCENARIO = "alg1-w1-r1"
# In smoke mode the parallel-frontier leg reuses the small scenario:
# the equality assertions still bite, the wall clock does not.
BIG_SCENARIO = SCENARIO if SMOKE else "alg2-w2"


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


def test_bench_parallel_frontiers(benchmark):
    """Reduced exploration of the largest E13 scenario, fanned out."""
    cores = os.cpu_count() or 1
    workers = min(4, cores)

    t0 = time.perf_counter()
    serial = explore_parallel(BIG_SCENARIO, workers=1, frontier_depth=6)
    serial_s = time.perf_counter() - t0

    parallel = benchmark.pedantic(
        lambda: explore_parallel(
            BIG_SCENARIO, workers=workers, frontier_depth=6
        ),
        rounds=1,
        iterations=1,
    )
    assert parallel.ok and serial.ok
    # Frontier partitioning is worker-count independent, so the merged
    # outcome must coincide exactly.
    assert parallel.executions == serial.executions
    assert parallel.verdicts == serial.verdicts
    benchmark.extra_info["executions"] = parallel.executions
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
