"""E2 -- linearizability + audit exactness (Theorem 8).

Claim check: the E2 driver passes on a reduced seed set.
Timing: one full random execution plus its audit-exactness check, and
the linearizability search on its history.
"""

from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_history,
)
from repro.harness.experiment import run
from repro.workloads.generators import RegisterWorkload, build_register_system


def test_e2_claims_hold():
    result = run("E2", seeds=range(20))
    assert result.ok, result.render()


def test_bench_execution_with_audit_check(benchmark):
    def once():
        built = build_register_system(RegisterWorkload(seed=5))
        history = built.run()
        assert check_audit_exactness(history, built.register) == []
        return history

    history = benchmark(once)
    benchmark.extra_info["primitives"] = len(history.primitive_events())


def test_bench_linearizability_search(benchmark):
    built = build_register_system(
        RegisterWorkload(seed=5, reads_per_reader=3, writes_per_writer=2)
    )
    history = built.run()
    ops = history.operations()
    spec = auditable_register_spec("v0", built.reader_index)

    result = benchmark(lambda: check_history(ops, spec))
    assert result.ok
    benchmark.extra_info["states_explored"] = result.explored
    benchmark.extra_info["operations"] = len(ops)
