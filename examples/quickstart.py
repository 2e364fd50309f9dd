"""Quickstart: an auditable register in a concurrent execution.

Builds the Algorithm 1 register with two readers, two writers and an
auditor, runs them under a seeded random schedule, and prints the
execution history, the audit report and the analysis verdicts.

Run:  python examples/quickstart.py [seed]
"""

import sys

from repro import AuditableRegister, RandomSchedule, Simulation
from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_history,
    effective_reads,
)


def main(seed: int = 11) -> None:
    sim = Simulation(schedule=RandomSchedule(seed))
    register = AuditableRegister(num_readers=2, initial="empty")

    # Handles bind the shared object to processes.  Reader indices are
    # the ids audits report.
    writer_a = register.writer(sim.spawn("writer-a"))
    writer_b = register.writer(sim.spawn("writer-b"))
    reader_0 = register.reader(sim.spawn("reader-0"), 0)
    reader_1 = register.reader(sim.spawn("reader-1"), 1)
    auditor = register.auditor(sim.spawn("auditor"))

    sim.add_program("writer-a", [writer_a.write_op("alpha"),
                                 writer_a.write_op("gamma")])
    sim.add_program("writer-b", [writer_b.write_op("beta")])
    sim.add_program("reader-0", [reader_0.read_op(), reader_0.read_op()])
    sim.add_program("reader-1", [reader_1.read_op()])
    sim.add_program("auditor", [auditor.audit_op(), auditor.audit_op()])

    history = sim.run()

    print("=== operations (invocation order) ===")
    for op in history.operations():
        status = "ok" if op.is_complete else "pending"
        print(f"  {op.pid:<9} {op.name}{op.args!r} -> {op.result!r} [{status}]")

    print("\n=== audit report ===")
    report = history.operations(name="audit")[-1].result
    for j, value in sorted(report, key=str):
        print(f"  reader {j} read {value!r}")

    print("\n=== analysis ===")
    effective = effective_reads(history, register)
    print(f"  effective reads: "
          f"{[(e.pid, e.value, e.kind) for e in effective]}")
    violations = check_audit_exactness(history, register)
    print(f"  audit exactness violations: {len(violations)}")
    # The spec maps each reading pid to the reader index audits report;
    # the checker hands it the pid of every operation, so the history is
    # checked as recorded.
    spec = auditable_register_spec("empty", {"reader-0": 0, "reader-1": 1})
    result = check_history(history.operations(), spec)
    print(f"  linearizable: {result.ok} "
          f"(explored {result.explored} states)")
    print(f"  total shared-memory steps: "
          f"{len(history.primitive_events())}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
