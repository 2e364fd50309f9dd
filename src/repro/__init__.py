"""Auditing without Leaks Despite Curiosity (PODC 2025) -- reproduction.

Wait-free, linearizable auditable shared objects that track *effective*
reads while preventing curious readers from learning anything beyond the
values they actually read:

- :class:`~repro.core.AuditableRegister` (Algorithm 1),
- :class:`~repro.core.AuditableMaxRegister` (Algorithm 2),
- :class:`~repro.core.AuditableSnapshot` (Algorithm 3),
- :class:`~repro.core.AuditableVersioned` (Theorem 13),

running on a deterministic shared-memory simulator (:mod:`repro.sim`)
with full analysis tooling: linearizability checking, effectiveness
detection, audit exactness oracles and leakage measurement
(:mod:`repro.analysis`), plus the baselines the paper compares against
(:mod:`repro.baselines`).

Quickstart::

    from repro import AuditableRegister, Simulation, RandomSchedule

    sim = Simulation(schedule=RandomSchedule(seed=7))
    reg = AuditableRegister(num_readers=2)
    writer = reg.writer(sim.spawn("writer"))
    r0 = reg.reader(sim.spawn("reader-0"), 0)
    auditor = reg.auditor(sim.spawn("auditor"))

    sim.add_program("writer", [writer.write_op("secret")])
    sim.add_program("reader-0", [r0.read_op()])
    sim.add_program("auditor", [auditor.audit_op()])
    history = sim.run()
    print(history.operations(name="audit")[-1].result)
"""

from repro.core import (
    AtomicVersionedObject,
    AuditableMaxRegister,
    AuditableRegister,
    AuditableSnapshot,
    AuditableVersioned,
    Nonced,
    TypeSpec,
    counter_spec,
    journal_spec,
    kv_store_spec,
    logical_clock_spec,
)
from repro.crypto import NonceSource, OneTimePadSequence
from repro.engine import (
    EngineReport,
    ExecutionTask,
    derive_seed,
    make_tasks,
    run_tasks,
)
from repro.memory import BOTTOM
from repro.rt import (
    Runtime,
    StressReport,
    ThreadRuntime,
    make_runtime,
    run_stress,
)
from repro.sim import (
    History,
    Op,
    PrioritySchedule,
    Process,
    RandomSchedule,
    ReplaySchedule,
    RoundRobinSchedule,
    Schedule,
    Simulation,
)

__version__ = "1.0.0"

__all__ = [
    "AtomicVersionedObject",
    "AuditableMaxRegister",
    "AuditableRegister",
    "AuditableSnapshot",
    "AuditableVersioned",
    "BOTTOM",
    "EngineReport",
    "ExecutionTask",
    "History",
    "Nonced",
    "NonceSource",
    "OneTimePadSequence",
    "Op",
    "PrioritySchedule",
    "Process",
    "RandomSchedule",
    "ReplaySchedule",
    "RoundRobinSchedule",
    "Runtime",
    "Schedule",
    "Simulation",
    "StressReport",
    "ThreadRuntime",
    "TypeSpec",
    "counter_spec",
    "derive_seed",
    "journal_spec",
    "kv_store_spec",
    "logical_clock_spec",
    "make_runtime",
    "make_tasks",
    "run_stress",
    "run_tasks",
    "__version__",
]
