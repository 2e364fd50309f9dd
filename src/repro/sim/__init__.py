"""Deterministic shared-memory execution substrate.

The paper's model (Section 2) is an interleaving model: each step of a
process is some local computation followed by a single atomic primitive on
a base object.  This package reproduces that model exactly:

- Algorithms are written as generator functions.  Every shared-memory
  primitive is a ``yield`` suspension point (see :mod:`repro.memory`).
- A :class:`~repro.sim.runner.Simulation` drives processes under a
  pluggable :class:`~repro.sim.scheduler.Schedule`; one scheduler step
  executes exactly one primitive.
- Every primitive, invocation and response is recorded in a
  :class:`~repro.sim.history.History`, so that definitions phrased in
  terms of executions and indistinguishability (effective operations,
  uncompromised operations) can be checked mechanically after the fact.

Executions are fully deterministic given the schedule seed, which makes
every experiment in this repository replayable.
"""

from repro.sim.events import (
    CrashEvent,
    Invocation,
    PendingPrimitive,
    PrimitiveEvent,
    Response,
)
from repro.sim.history import History, OperationRecord
from repro.sim.process import Op, Process, ProcessState
from repro.sim.runner import Simulation
from repro.sim.scheduler import (
    PrioritySchedule,
    RandomSchedule,
    ReplayMismatch,
    ReplaySchedule,
    RoundRobinSchedule,
    Schedule,
)

__all__ = [
    "CrashEvent",
    "History",
    "Invocation",
    "Op",
    "OperationRecord",
    "PendingPrimitive",
    "PrimitiveEvent",
    "PrioritySchedule",
    "Process",
    "ProcessState",
    "RandomSchedule",
    "ReplayMismatch",
    "ReplaySchedule",
    "Response",
    "RoundRobinSchedule",
    "Schedule",
    "Simulation",
]
