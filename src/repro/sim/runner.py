"""The simulation driver: processes + schedule -> history.

One :meth:`Simulation.step` performs, for the chosen process, exactly one
of:

- *invocation*: start the process's next operation and run its local
  computation up to the first primitive (no primitive executes);
- *primitive*: atomically apply the pending primitive, record it, and run
  local computation up to the next suspension; if the operation finishes,
  record its response in the same step.

This matches the paper's step granularity (local computation is free;
one primitive per step), while giving fine-grained control: attacks pause
or crash processes between specific primitives, and experiments can
single-step executions to place linearization points precisely.

The generator-driving protocol itself (resume up to the next suspension,
enforce that only :class:`PendingPrimitive` is yielded, capture the
return value) is runtime-neutral and lives in
:func:`drive_to_suspension`, shared with the thread-backed runtime
(:mod:`repro.rt`): the simulator is one backend of the runtime seam, not
the owner of the execution contract.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.events import PendingPrimitive
from repro.sim.history import History
from repro.sim.process import Op, Process, ProcessState
from repro.sim.scheduler import (
    CrashDecision,
    DelayDecision,
    DuplicateDecision,
    OmitDecision,
    PartitionDecision,
    RecoverDecision,
    RoundRobinSchedule,
    Schedule,
)


def drive_to_suspension(
    pid: str,
    gen: Generator,
    value: Any = None,
    *,
    first: bool = False,
) -> Tuple[bool, Any]:
    """Advance an operation generator to its next suspension point.

    Sends ``value`` into ``gen`` (or primes it when ``first``) and
    returns ``(True, PendingPrimitive)`` if the operation suspended on a
    primitive, or ``(False, result)`` if it finished.  Every runtime
    backend drives operations through here, so the
    one-primitive-per-suspension contract is enforced identically under
    the simulator and under real threads.
    """
    try:
        yielded = next(gen) if first else gen.send(value)
    except StopIteration as stop:
        return False, stop.value
    if not isinstance(yielded, PendingPrimitive):
        raise TypeError(
            f"{pid} yielded {yielded!r}; algorithm code must "
            "yield PendingPrimitive (use `yield from obj.primitive()`)"
        )
    return True, yielded


def drive_op(
    pid: str,
    op: Op,
    apply: Callable[[PendingPrimitive], Any],
) -> Any:
    """Drive one operation to completion; return the operation's result.

    Every yielded primitive goes through ``apply``, which executes it
    atomically (however the backend defines atomicity: under the
    history lock on the thread runtime, as a message round-trip to
    the memory server on the process runtime) and returns its result.
    ``apply`` may raise to abandon the operation (e.g. when the memory
    server crashed the process mid-operation); the generator is closed
    and the exception propagates.
    """
    gen = op.start()
    try:
        suspended, payload = drive_to_suspension(pid, gen, first=True)
        while suspended:
            result = apply(payload)
            suspended, payload = drive_to_suspension(pid, gen, result)
    finally:
        gen.close()
    return payload


class StepBudgetExceeded(RuntimeError):
    """Raised when a simulation exceeds its step budget.

    For wait-free algorithms this indicates a bug (or a deliberately
    unfair experiment); the wait-freedom tests rely on generous budgets
    never being hit.
    """


class Simulation:
    """A shared-memory system: a set of processes and a schedule."""

    #: The :class:`repro.rt.Runtime` backend discriminator.
    kind = "sim"

    def __init__(
        self,
        schedule: Optional[Schedule] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        self.schedule = schedule or RoundRobinSchedule()
        self.max_steps = max_steps
        self.history = History()
        self.processes: Dict[str, Process] = {}
        self._steps_taken = 0
        # Incrementally maintained: pid -> process for every process with
        # work, plus a lazily rebuilt pid-sorted view.  Membership changes
        # only on assign / operation finish / crash (the Process watcher
        # hook), so the per-step cost is a cache lookup, not a scan.
        self._runnable: Dict[str, Process] = {}
        self._runnable_sorted: Optional[List[Process]] = None
        # Fault-injection state.  _partitioned maps pid -> last step at
        # which the pid is still severed from memory; _last_applied maps
        # pid -> its most recently applied primitive (op_id, obj,
        # primitive, args), the message a DuplicateDecision re-delivers.
        self._partitioned: Dict[str, int] = {}
        self._last_applied: Dict[str, Tuple[int, Any, str, Tuple]] = {}

    # -- construction -----------------------------------------------------

    def spawn(self, pid: str) -> Process:
        """Create a process; pids must be unique."""
        if pid in self.processes:
            raise ValueError(f"duplicate pid {pid!r}")
        process = Process(pid=pid)
        process._watcher = self._work_changed
        self.processes[pid] = process
        return process

    def release(self) -> None:
        """Detach every process (:meth:`Process._detach`), so reference
        counting alone frees the simulation once its owner drops it.
        The simulation must not run afterwards."""
        for process in self.processes.values():
            process._detach()

    def add_program(self, pid: str, ops: List[Op]) -> Process:
        """Spawn (or extend) a process with a list of operations."""
        process = self.processes.get(pid) or self.spawn(pid)
        process.assign(ops)
        return process

    # -- control ----------------------------------------------------------

    def crash(self, pid: str) -> None:
        """Stop a process; its pending operation stays pending forever.

        Models the honest-but-curious attacker that "stops prematurely"
        as well as ordinary crash failures.
        """
        process = self.processes[pid]
        op_id = process.current_op_id
        process._crash()
        self.history.record_crash(pid, op_id)

    def recover(self, pid: str) -> None:
        """Restart a crashed process from a fresh replica.

        The crashed operation stays pending; the process resumes with
        the next operation of its program under the same pid (fresh
        op_ids, so the checkers see an ordinary process with one more
        pending operation).  No history event is recorded: recovery is
        visible only through the process invoking operations again.
        """
        self.processes[pid]._recover()

    def duplicate(self, pid: str) -> None:
        """Re-deliver ``pid``'s most recently applied primitive.

        The memory applies the duplicated message again and the second
        application is recorded under the original operation, keeping
        the per-object log equal to the true application order (the
        audit oracle's soundness condition).  The process never sees
        the duplicate's result.
        """
        entry = self._last_applied.get(pid)
        if entry is None:
            raise ValueError(
                f"{pid!r} has no applied primitive to re-deliver"
            )
        op_id, obj, primitive, args = entry
        result = obj.apply(primitive, args)
        self.history.record_primitive(
            pid, op_id, obj.name, primitive, args, result
        )

    def omit(self, pid: str) -> None:
        """Drop ``pid``'s in-flight primitive: the request is never
        applied and the operation is abandoned (stays pending)."""
        self.processes[pid]._abandon_op()

    def partition(self, pids, steps: int = 4) -> None:
        """Sever ``pids`` from memory for the next ``steps`` steps.

        Unknown pids are ignored (partitioning a process that does not
        exist is a no-op, like partitioning an empty network segment);
        overlapping partitions extend, never shorten.
        """
        heal_at = self._steps_taken + steps
        for pid in pids:
            if pid in self.processes:
                current = self._partitioned.get(pid, 0)
                self._partitioned[pid] = max(current, heal_at)

    def is_partitioned(self, pid: str) -> bool:
        """Would ``pid`` be hidden from the schedule at the next step?

        Accounts for healing (the partition may expire by then) and the
        quiescence rule (a partition covering every process with work
        heals immediately rather than deadlocking the run).
        """
        horizon = self._steps_taken + 1
        self._heal_expired(horizon)
        if pid not in self._partitioned:
            return False
        runnable = self._runnable_view()
        if runnable and all(p.pid in self._partitioned for p in runnable):
            return False
        return True

    def duplicable_pids(self) -> List[str]:
        """Pids with an applied primitive a duplicate could re-deliver."""
        return sorted(self._last_applied)

    def recoverable_pids(self) -> List[str]:
        """Crashed pids with program left to resume."""
        return sorted(
            pid
            for pid, process in self.processes.items()
            if process.state is ProcessState.CRASHED
            and process.remaining_ops() > 0
        )

    def _heal_expired(self, horizon: int) -> None:
        expired = [
            pid
            for pid, heal_at in self._partitioned.items()
            if horizon > heal_at
        ]
        for pid in expired:
            del self._partitioned[pid]

    def _visible_runnable(self, horizon: int) -> List[Process]:
        """The runnable view minus partitioned pids, with healing.

        When the partition covers everything runnable, it heals in full
        (the simulator analogue of the memory server releasing held
        requests once every live worker is blocked on one): partitions
        stall progress, they never wedge a run.
        """
        runnable = self._runnable_view()
        if not self._partitioned:
            return runnable
        self._heal_expired(horizon)
        if not self._partitioned:
            return runnable
        visible = [p for p in runnable if p.pid not in self._partitioned]
        if not visible and runnable:
            self._partitioned.clear()
            return runnable
        return visible

    def schedulable(self) -> List[Process]:
        """The processes the schedule could be offered at the next step
        (the runnable view minus currently partitioned pids)."""
        return list(self._visible_runnable(self._steps_taken + 1))

    def _work_changed(self, process: Process) -> None:
        """Watcher hook: keep the runnable set in sync with one process."""
        if process.has_work():
            if process.pid not in self._runnable:
                self._runnable[process.pid] = process
                self._runnable_sorted = None
        elif self._runnable.pop(process.pid, None) is not None:
            self._runnable_sorted = None

    def _runnable_view(self) -> List[Process]:
        """The pid-sorted runnable list; owned by the simulation.

        Rebuilt only when membership changed since the last step, so
        schedulers receive an already-sorted list they must not mutate.
        """
        view = self._runnable_sorted
        if view is None:
            view = self._runnable_sorted = sorted(
                self._runnable.values(), key=lambda p: p.pid
            )
        return view

    def runnable(self) -> List[Process]:
        return list(self._runnable_view())

    def step(self) -> bool:
        """Advance one scheduler step.  Returns False when nothing runs."""
        runnable = self._runnable_view()
        if not runnable:
            return False
        if self._steps_taken >= self.max_steps:
            raise StepBudgetExceeded(
                f"exceeded {self.max_steps} steps; pending processes: "
                f"{[p.pid for p in runnable]}"
            )
        self._steps_taken += 1
        visible = self._visible_runnable(self._steps_taken)
        chosen = self.schedule.choose(visible, self._steps_taken)
        if isinstance(chosen, Process):
            self._advance(chosen)
        else:
            # The schedule-injection hook for fault-exploring adversaries
            # (repro.fuzz): the step is consumed by the fault.
            self._apply_fault(chosen)
        return True

    def step_process(self, pid: str) -> bool:
        """Advance a specific process one step (bypassing the schedule).

        Used by attacks and hand-crafted interleavings.  Returns False if
        the process has no work.
        """
        process = self.processes[pid]
        if not process.has_work():
            return False
        self._steps_taken += 1
        self._advance(process)
        return True

    def run(self, max_steps: Optional[int] = None) -> History:
        """Run until all processes finish (or the budget is exhausted)."""
        remaining = max_steps
        while True:
            if remaining is not None:
                if remaining <= 0:
                    break
                remaining -= 1
            if not self.step():
                break
        return self.history

    def run_process(self, pid: str, ops: Optional[int] = None) -> History:
        """Run a single process to completion of ``ops`` operations
        (all remaining when None), ignoring the schedule."""
        process = self.processes[pid]
        target = (
            None
            if ops is None
            else process._op_counter + ops - (1 if process.gen else 0)
        )
        while process.has_work():
            if (
                target is not None
                and process.gen is None
                and process._op_counter >= target
            ):
                break
            self.step_process(pid)
        return self.history

    @property
    def steps_taken(self) -> int:
        return self._steps_taken

    def inject(self, decision) -> None:
        """Apply a fault decision outside the schedule seam.

        Consumes one step, exactly as if :meth:`step` had chosen the
        decision — the lenient replayer (:func:`repro.fuzz.executor.
        run_decisions_lenient`) uses this so shrunken candidate
        sequences account steps identically to a strict replay.
        """
        if self._steps_taken >= self.max_steps:
            raise StepBudgetExceeded(
                f"exceeded {self.max_steps} steps injecting {decision!r}"
            )
        self._steps_taken += 1
        self._apply_fault(decision)

    def _apply_fault(self, decision) -> None:
        if isinstance(decision, CrashDecision):
            self.crash(decision.pid)
        elif isinstance(decision, RecoverDecision):
            self.recover(decision.pid)
        elif isinstance(decision, DuplicateDecision):
            self.duplicate(decision.pid)
        elif isinstance(decision, OmitDecision):
            self.omit(decision.pid)
        elif isinstance(decision, PartitionDecision):
            self.partition(decision.pids, decision.steps)
        elif isinstance(decision, DelayDecision):
            # In the simulator a delay is the schedule not choosing the
            # process; the decision just consumes the step.
            pass
        else:
            raise TypeError(
                f"schedule returned {decision!r}; expected a Process or "
                "a fault decision"
            )

    # -- internals ---------------------------------------------------------

    def _advance(self, process: Process) -> None:
        if process.gen is None:
            op = process._begin_next_op()
            self.history.record_invocation(
                process.pid, process.current_op_id, op.name, op.args
            )
            self._resume(process, first=True)
        else:
            pending = process.pending
            if pending is None:
                raise RuntimeError(
                    f"{process.pid} is mid-operation without a pending "
                    "primitive; algorithm generators must yield "
                    "PendingPrimitive"
                )
            result = self._apply(process, pending)
            self._resume(process, value=result)

    def _apply(self, process: Process, pending: PendingPrimitive) -> Any:
        result = pending.obj.apply(pending.primitive, pending.args)
        self.history.record_primitive(
            process.pid,
            process.current_op_id,
            pending.obj.name,
            pending.primitive,
            pending.args,
            result,
        )
        # The most recent applied message per pid; a DuplicateDecision
        # re-delivers exactly this.
        self._last_applied[process.pid] = (
            process.current_op_id,
            pending.obj,
            pending.primitive,
            pending.args,
        )
        process.steps_in_current_op += 1
        # The replay log makes the generator's control state rebuildable
        # (see repro.sim.checkpoint): ops are deterministic functions of
        # the primitive results they were sent.
        process._replay_log.append(result)
        return result

    def _resume(
        self, process: Process, value: Any = None, first: bool = False
    ) -> None:
        suspended, payload = drive_to_suspension(
            process.pid, process.gen, value, first=first
        )
        if not suspended:
            self.history.record_response(
                process.pid,
                process.current_op_id,
                process.current_op.name,
                payload,
            )
            process._finish_op()
            return
        process.pending = payload
