"""The runtime interface: the seam between algorithms and execution.

Every algorithm in this repository is written against two contracts and
nothing else:

- *processes* are sequential programs of :class:`~repro.sim.process.Op`
  operations, each a generator that suspends on every shared-memory
  access by yielding a :class:`~repro.sim.events.PendingPrimitive`;
- *primitives* are applied atomically through
  :meth:`~repro.memory.base.BaseObject.apply` and recorded, in
  application order, in a :class:`~repro.sim.history.History`.

A :class:`Runtime` is anything that honours those two contracts: it
spawns processes, drives their operation generators, applies each
yielded primitive atomically, and records a monotonically-indexed
history that the analysis oracles (linearizability, audit exactness,
effectiveness) consume unchanged.  Three backends ship:

- :class:`~repro.sim.runner.Simulation` — the deterministic
  single-threaded simulator (:mod:`repro.sim`), registered as a
  :class:`Runtime` below;
- :class:`~repro.rt.thread_runtime.ThreadRuntime` — one real OS thread
  per process, each primitive applied and recorded under the one
  history lock;
- :class:`~repro.rt.process_runtime.ProcessRuntime` — one real OS
  process per process, primitives applied over message channels by a
  memory-server process that owns the objects and the history (true
  multi-core parallelism; network faults injectable on the schedule
  decision seam).

Handles (readers/writers/auditors/scanners) consume only the spawned
process's ``pid``, so algorithm code runs unmodified on either backend.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional

from repro.sim.history import History
from repro.sim.process import Op
from repro.sim.runner import Simulation
from repro.sim.scheduler import schedule_from_seed


class RunAborted(RuntimeError):
    """A runtime gave up on a run, which is inconclusive, not a
    violation (e.g. its memory server died); the message names what
    failed."""


class WatchdogTimeout(RunAborted):
    """A runtime's watchdog gave up: no operation completed for
    ``join_watchdog`` seconds.  The message names the processes still
    running."""


#: Default seconds without a completed operation before the processes
#: still running are declared hung (:class:`WatchdogTimeout`), on
#: every real runtime.
DEFAULT_WATCHDOG = 60.0


class Runtime(abc.ABC):
    """Abstract execution backend for the paper's algorithms.

    ``spawn`` returns a process handle whose ``pid`` attribute is what
    object handle factories consume; ``add_program`` queues operations;
    ``run`` executes everything and returns the recorded history.
    """

    #: Backend discriminator ("sim", "thread" or "process").
    kind: str = "abstract"
    #: What the history's tap returned when a clean run closed it
    #: (:meth:`~repro.sim.history.History.close_stream`); the thread
    #: and process runtimes set it.
    verdict: Any = None

    @abc.abstractmethod
    def spawn(self, pid: str) -> Any:
        """Create a process; pids must be unique."""

    @abc.abstractmethod
    def add_program(self, pid: str, ops: List[Op]) -> Any:
        """Spawn (or extend) a process with a list of operations."""

    @abc.abstractmethod
    def run(self) -> History:
        """Run every process to completion; return the history."""

    @property
    @abc.abstractmethod
    def history(self) -> History:
        """The (append-only) execution history recorded so far."""

    @property
    @abc.abstractmethod
    def steps_taken(self) -> int:
        """Primitives applied so far (one step = one primitive)."""


# The simulator honours the contract as it stands; its extra control
# surface (step, crash, run_process, ...) serves the experiment drivers
# and attacks that place steps precisely.
Runtime.register(Simulation)


def make_runtime(
    kind: str = "sim",
    *,
    schedule: Optional[Any] = None,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    build: Optional[Any] = None,
    build_args: tuple = (),
    faults: Optional[Any] = None,
) -> Runtime:
    """Construct a runtime backend by name.

    ``schedule``/``seed``/``max_steps`` configure the simulator backend,
    a :class:`~repro.sim.runner.Simulation` (without a ``schedule``, it
    takes :func:`~repro.sim.scheduler.schedule_from_seed`'s).  The
    thread and process backends take interleavings from the OS, so
    those options are accepted but ignored for them — callers can pass
    one configuration to any backend.  ``build``/``build_args``
    configure the process backend (the picklable system builder every
    process replays).  ``faults`` arms a
    :class:`~repro.faults.FaultPlan` on the thread or process backend;
    the simulator rejects it, since its faults are schedule decisions
    (``schedule=``).  A runtime's history streams through
    :meth:`~repro.sim.history.History.stream_to`.
    """
    if kind == "sim":
        if faults is not None:
            raise ValueError(
                "the simulator takes faults through its schedule seam "
                "(a Schedule returning fault decisions), not faults="
            )
        if schedule is None:
            schedule = schedule_from_seed(seed)
        kwargs = {} if max_steps is None else {"max_steps": max_steps}
        return Simulation(schedule=schedule, **kwargs)
    if kind == "thread":
        from repro.rt.thread_runtime import ThreadRuntime

        return ThreadRuntime(faults=faults)
    if kind == "process":
        from repro.rt.process_runtime import ProcessRuntime

        if build is None:
            raise ValueError(
                "the process runtime needs a picklable system builder: "
                "make_runtime('process', build=..., build_args=...)"
            )
        return ProcessRuntime(build, build_args, faults=faults)
    raise ValueError(f"unknown runtime kind {kind!r} (sim|thread|process)")
