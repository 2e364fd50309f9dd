"""Processes: sequential programs driven one primitive at a time.

A process executes a sequence of high-level operations (:class:`Op`).
Each operation is a generator; every ``yield`` hands a
:class:`~repro.sim.events.PendingPrimitive` to the scheduler, which
applies it atomically and sends back the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.events import PendingPrimitive


# A runtime-agnostic process reference.  Object handles (readers,
# writers, auditors, scanners) consume only the ``pid`` attribute, so
# they accept the simulator's Process and repro.rt's ThreadProcess
# alike; the alias marks that contract in handle signatures.
ProcessRef = Any


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    IDLE = "idle"  # no operation in progress, more ops queued
    RUNNING = "running"  # an operation is in progress
    DONE = "done"  # program exhausted
    CRASHED = "crashed"  # stopped taking steps (pending op stays pending)


@dataclass
class Op:
    """A high-level operation to perform: ``factory(*args)`` must return a
    generator implementing the operation."""

    name: str
    factory: Callable[..., Generator]
    args: Tuple[Any, ...] = ()

    def start(self) -> Generator:
        gen = self.factory(*self.args)
        if not hasattr(gen, "send"):
            raise TypeError(
                f"operation {self.name!r} did not return a generator; "
                "algorithm methods must be generator functions"
            )
        return gen


@dataclass
class Process:
    """One simulated sequential process.

    Processes are created through :meth:`repro.sim.runner.Simulation.spawn`
    and given a program with :meth:`assign`.  The scheduler interacts with
    a process only through :meth:`has_work` and the runner's stepping
    logic; user code interacts with it through handles bound to it (e.g.
    ``register.reader(process)``).
    """

    pid: str
    _program: List[Op] = field(default_factory=list)
    _next_op: int = 0
    _op_counter: int = 0

    state: ProcessState = ProcessState.IDLE
    gen: Optional[Generator] = None
    current_op: Optional[Op] = None
    current_op_id: Optional[int] = None
    pending: Optional[PendingPrimitive] = None
    steps_in_current_op: int = 0
    # Primitive results sent into the current operation's generator, in
    # order.  Because operations are deterministic functions of their
    # primitive results, this log is a complete recipe for rebuilding the
    # generator's control state: restart the generator and re-send the
    # logged values (repro.sim.checkpoint does exactly that when a
    # model-checking backtrack restores a mid-operation process).
    _replay_log: List[Any] = field(
        default_factory=list, repr=False, compare=False
    )
    # Set by Simulation.spawn: called whenever has_work() may have
    # changed, so the runner can maintain its runnable set incrementally
    # instead of re-scanning every process on every step.
    _watcher: Optional[Callable[["Process"], None]] = field(
        default=None, repr=False, compare=False
    )

    def assign(self, ops) -> "Process":
        """Append operations to this process's program."""
        self._program.extend(ops)
        if self.state is ProcessState.DONE:
            self.state = ProcessState.IDLE
        if self._watcher is not None:
            self._watcher(self)
        return self

    def has_work(self) -> bool:
        if self.state is ProcessState.CRASHED:
            return False
        return self.gen is not None or self._next_op < len(self._program)

    def is_mid_operation(self) -> bool:
        return self.gen is not None

    def remaining_ops(self) -> int:
        return len(self._program) - self._next_op

    # -- internal, used by Simulation ------------------------------------

    def _begin_next_op(self) -> Op:
        op = self._program[self._next_op]
        self._next_op += 1
        self.current_op = op
        self.current_op_id = self._op_counter
        self._op_counter += 1
        self.gen = op.start()
        self.state = ProcessState.RUNNING
        self.steps_in_current_op = 0
        self._replay_log.clear()
        return op

    def _finish_op(self) -> None:
        self.gen = None
        self.current_op = None
        self.current_op_id = None
        self.pending = None
        self._replay_log.clear()
        if self._next_op < len(self._program):
            self.state = ProcessState.IDLE
        else:
            self.state = ProcessState.DONE
        if self._watcher is not None:
            self._watcher(self)

    def _crash(self) -> None:
        self.state = ProcessState.CRASHED
        if self.gen is not None:
            self.gen.close()
            self.gen = None
        self.pending = None
        self._replay_log.clear()
        if self._watcher is not None:
            self._watcher(self)

    def _abandon_op(self) -> None:
        """Drop the in-flight operation (omission fault) and move on.

        The operation's invocation stays in the history with no
        response — pending forever — while the process itself continues
        with the next operation of its program.  ``current_op_id`` is
        not reused: op ids come from ``_op_counter``, so the abandoned
        operation keeps a unique identity for the checkers.
        """
        if self.gen is None:
            raise ValueError(
                f"process {self.pid!r} has no in-flight operation to abandon"
            )
        self.gen.close()
        self.gen = None
        self.current_op = None
        self.current_op_id = None
        self.pending = None
        self._replay_log.clear()
        if self._next_op < len(self._program):
            self.state = ProcessState.IDLE
        else:
            self.state = ProcessState.DONE
        if self._watcher is not None:
            self._watcher(self)

    def _recover(self) -> None:
        """Restart after a crash: resume the program at the next op.

        The crashed operation is lost (``_crash`` already discarded its
        generator and pending primitive; its history record stays
        pending).  The op counter keeps counting, so post-recovery
        operations never collide with pre-crash ones.
        """
        if self.state is not ProcessState.CRASHED:
            raise ValueError(f"process {self.pid!r} is not crashed")
        if self._next_op < len(self._program):
            self.state = ProcessState.IDLE
        else:
            self.state = ProcessState.DONE
        if self._watcher is not None:
            self._watcher(self)

    def _detach(self) -> None:
        """Cut this process loose from its program and its simulation.

        The program's ops hold bound methods of handles that hold the
        process, and the watcher holds the simulation that holds the
        process: both are reference cycles, which only the cyclic
        collector frees unless they are cut.  The process must not
        run afterwards.
        """
        self._program.clear()
        self.gen = self.current_op = self.pending = None
        self._watcher = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = self.current_op.name if self.current_op else None
        return f"Process({self.pid!r}, state={self.state.value}, op={op})"
