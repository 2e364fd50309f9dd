"""Runtime abstraction: the paper's algorithms on pluggable backends.

- :class:`Runtime` — the interface (spawn processes, apply primitives
  atomically, record history); see :mod:`repro.rt.base`.
- :class:`~repro.sim.runner.Simulation` — the deterministic simulator,
  a registered :class:`Runtime` (``make_runtime("sim")``).
- :class:`ThreadRuntime` — one real OS thread per process, per-object
  locks around :meth:`~repro.memory.base.BaseObject.apply`, thread-safe
  monotonically-indexed history (:mod:`repro.rt.thread_runtime`).
- :class:`ProcessRuntime` — one real OS process per process, primitives
  applied over message channels by a memory-server process; network
  faults (:class:`FaultPlan`) injectable on the same schedule-decision
  seam as the fuzzer's crashes (:mod:`repro.rt.process_runtime`).
- :func:`run_stress` — the stress/throughput harness behind
  ``python -m repro stress`` (:mod:`repro.rt.stress`).
"""

from repro.faults import (
    FAULT_FAMILIES,
    FaultPlan,
    ScriptedFaultPlan,
    SeededFaultPlan,
    chaos_plan,
    parse_fault_families,
)
from repro.rt.base import Runtime, WatchdogTimeout, make_runtime
from repro.rt.process_runtime import (
    CrashedByServer,
    ObjectRegistry,
    PidRef,
    PrimitiveOmitted,
    ProcessRuntime,
)
from repro.rt.stress import (
    STRESS_OBJECTS,
    STRESS_RUNTIMES,
    StressReport,
    build_stress_register,
    percentile_summary,
    run_stress,
    split_threads,
    stress_op_source,
)
from repro.rt.thread_runtime import ThreadProcess, ThreadRuntime

__all__ = [
    "CrashedByServer",
    "FAULT_FAMILIES",
    "FaultPlan",
    "ObjectRegistry",
    "PidRef",
    "PrimitiveOmitted",
    "ProcessRuntime",
    "Runtime",
    "STRESS_OBJECTS",
    "STRESS_RUNTIMES",
    "ScriptedFaultPlan",
    "SeededFaultPlan",
    "StressReport",
    "ThreadProcess",
    "ThreadRuntime",
    "WatchdogTimeout",
    "build_stress_register",
    "chaos_plan",
    "make_runtime",
    "parse_fault_families",
    "percentile_summary",
    "run_stress",
    "split_threads",
    "stress_op_source",
]
