"""E13 -- exhaustive verification over all interleavings.

Claim check: the full E13 driver (six scenarios, ~1700 interleavings,
zero violations).
Timing: exhaustively exploring the 1-write/1-read scenario (raw
enumeration: every interleaving, no reduction).
"""

from repro.harness.experiment import run
from repro.mc import explore
from repro.mc.scenarios import (
    register_scenario_check,
    register_scenario_factory,
)


def test_e13_claims_hold():
    result = run("E13")
    assert result.ok, result.render()


def test_bench_explore_write_read(benchmark):
    factory = register_scenario_factory(1, 1, 0)
    report = benchmark(
        explore, factory, register_scenario_check, reduce=False,
    )
    assert report.ok
    benchmark.extra_info["interleavings"] = report.executions
