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


class WatchdogTimeout(RuntimeError):
    """A runtime's watchdog gave up: no operation completed for
    ``join_watchdog`` seconds.  The message names the processes still
    running."""


class Runtime(abc.ABC):
    """Abstract execution backend for the paper's algorithms.

    ``spawn`` returns a process handle whose ``pid`` attribute is what
    object handle factories consume; ``add_program`` queues operations;
    ``run`` executes everything and returns the recorded history.
    """

    #: Backend discriminator ("sim", "thread" or "process").
    kind: str = "abstract"

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
    event_log: Optional[str] = None,
    retain_history: bool = True,
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
    (``schedule=``).

    ``event_log`` streams every recorded history event to a JSONL file
    (the :mod:`repro.sim.event_log` wire format) on any backend;
    ``retain_history=False`` additionally disables history buffering
    (:meth:`~repro.sim.history.History.stream_to`) so memory stays
    bounded on unbounded runs — the online verdict paths' configuration.
    """
    runtime: Runtime
    if kind == "sim":
        if faults is not None:
            raise ValueError(
                "the simulator takes faults through its schedule seam "
                "(a Schedule returning fault decisions), not faults="
            )
        if schedule is None:
            schedule = schedule_from_seed(seed)
        kwargs = {} if max_steps is None else {"max_steps": max_steps}
        runtime = Simulation(schedule=schedule, **kwargs)
    elif kind == "thread":
        from repro.rt.thread_runtime import ThreadRuntime

        runtime = ThreadRuntime(faults=faults)
    elif kind == "process":
        from repro.rt.process_runtime import ProcessRuntime

        if build is None:
            raise ValueError(
                "the process runtime needs a picklable system builder: "
                "make_runtime('process', build=..., build_args=...)"
            )
        # The history lives in the memory-server process; the sink
        # ships there and streams server-side.
        return ProcessRuntime(
            build,
            build_args,
            faults=faults,
            event_log=event_log,
            retain_history=retain_history,
        )
    else:
        raise ValueError(
            f"unknown runtime kind {kind!r} (sim|thread|process)"
        )
    if event_log is not None or not retain_history:
        sink = None
        if event_log is not None:
            from repro.sim.event_log import JsonlEventSink

            sink = JsonlEventSink(event_log)
        runtime.history.stream_to(sink, retain=retain_history)
        # The caller closes the sink after a clean run (end marker).
        runtime.event_sink = sink
    return runtime
