"""The thread backend: one real OS thread per process.

The paper's objects are wait-free and built purely from atomic
primitives, so they run unmodified under genuine concurrency provided
the runtime preserves the two contracts of the model:

1. **Primitive atomicity.**  Every yielded
   :class:`~repro.sim.events.PendingPrimitive` is applied through the
   existing :meth:`~repro.memory.base.BaseObject.apply` under the one
   history lock, so primitives are totally ordered and each executes
   indivisibly.  Local computation between primitives runs unlocked on
   the owning thread, exactly as in the model where local steps are
   free.  (Under the GIL a lock per object would buy no parallelism,
   only a second acquire per primitive.)
2. **A monotonically-indexed, order-faithful history.**  The same lock
   is held across both the primitive's application and its recording,
   so the index order of primitive events equals their true
   application order, on every object by construction — the property
   the audit-exactness oracle relies on (all its comparisons are
   between events on ``R``).  Across objects, an event's index is
   assigned between the operation's invocation recording and its
   response recording, so recorded real-time precedence (response
   index below invocation index) always implies true precedence: the
   linearizability checker never sees a constraint that did not hold.

Determinism is **not** preserved: interleavings come from the OS
scheduler, so two runs of the same program may record different (both
correct) histories.  Seeded replay remains the simulator backend's job.

Fault injection: a :class:`~repro.faults.FaultPlan` may be armed on the
runtime; every primitive *arrival* goes through the
:class:`~repro.faults.ArrivalInterpreter` the process runtime's memory
server uses too.  Only the fault families that exist without a message
layer apply here (:attr:`ThreadRuntime.fault_families`) -- **crash**
(the worker thread stops, leaving its operation forever pending:
exactly the conservative "may or may not have happened" the oracles
already treat correctly, with the crash event recorded in the history)
and **delay** (the interpreter holds the arriving thread until its
request is released, by the rule the memory server follows: after
``k`` further arrivals, or once every live thread is held).  Released
threads are woken in arrival order; the OS then orders their
applications.  No thread ever sleeps on a timer.  The interpreter
ignores message-level families (partition/dup/omit/recover) if a plan
emits them; ``repro stress`` rejects them up front for this runtime.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import ArrivalInterpreter, FaultPlan
from repro.rt.base import Runtime, WatchdogTimeout
from repro.sim.history import History
from repro.sim.process import Op
from repro.sim.runner import drive_op
from repro.sim.scheduler import CrashDecision

#: Default seconds without a completed operation before the threads
#: still running are declared hung and surfaced instead of joined
#: forever.
DEFAULT_WATCHDOG = 60.0


class _CrashFault(BaseException):
    """Internal: stop this worker thread at the current primitive.

    Deliberately a ``BaseException`` so no handler inside an operation
    generator can swallow it; the driving loop catches it by name and
    stops the thread *without* reporting an error — the crash is a
    scheduled fault, already recorded in the history.
    """

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.pid = pid


class ThreadProcess:
    """Process handle of the thread runtime.

    Handle factories (``register.reader(process, j)`` etc.) consume only
    ``pid``, so a ``ThreadProcess`` is a drop-in stand-in for the
    simulator's :class:`~repro.sim.process.Process`.  The operation
    source is owned by the driving thread and never shared.
    """

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.op_counter = 0
        self._program: List[Op] = []
        self._next_op = 0
        self._source: Optional[Callable[[], Optional[Op]]] = None
        self._source_budget: Optional[int] = None

    def assign(self, ops: List[Op]) -> "ThreadProcess":
        self._program.extend(ops)
        return self

    def set_source(
        self,
        factory: Callable[[], Optional[Op]],
        max_ops: Optional[int] = None,
    ) -> "ThreadProcess":
        """Generate operations on demand (for duration-bounded runs)."""
        self._source = factory
        self._source_budget = max_ops
        return self

    def _take_next_op(self) -> Optional[Op]:
        if self._next_op < len(self._program):
            op = self._program[self._next_op]
            self._next_op += 1
            return op
        if self._source is not None:
            if self._source_budget is not None:
                if self._source_budget <= 0:
                    return None
                self._source_budget -= 1
            return self._source()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadProcess({self.pid!r}, ops_done={self.op_counter})"


class ThreadRuntime(Runtime):
    """Run each process's operation generators on a real OS thread."""

    kind = "thread"
    #: The fault families this runtime carries out (no message layer).
    fault_families = ("crash", "delay")

    def __init__(
        self,
        *,
        record_latency: bool = True,
        join_watchdog: Optional[float] = DEFAULT_WATCHDOG,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self._history = History()
        self._hist_lock = threading.Lock()
        self.join_watchdog = join_watchdog
        self.processes: Dict[str, ThreadProcess] = {}
        self.record_latency = record_latency
        #: (pid, op_name, seconds) per completed operation, merged after
        #: the threads join; consumed by the stress harness.
        self.latencies: List[Tuple[str, str, float]] = []
        self.elapsed = 0.0
        self._steps = 0
        #: time.monotonic() of the last completed operation (or of the
        #: start): the watchdog's measure of progress.
        self._progress_at = 0.0
        self._stop = threading.Event()
        self._errors: List[Tuple[str, BaseException]] = []
        self._err_lock = threading.Lock()
        self.faults = faults
        self._interpreter = None
        if faults is not None:
            self._interpreter = ArrivalInterpreter(faults, self.fault_families)
        # The fault lock serialises arrivals into one total order, as
        # the single-threaded memory server does.  Scripted plans may
        # mutate internal state in decide(), so it stays under the lock.
        self._fault_lock = threading.Lock()
        # A held thread waits on its own condition over the fault lock,
        # so a release wakes the held threads in arrival order.
        # ``_live`` counts the threads still running, held ones
        # included: the release rule's measure of quiescence.
        self._wakeups: Dict[str, threading.Condition] = {}
        self._held: set = set()
        self._live = 0
        #: Pids crashed by fault injection, in crash order.
        self.crashed: List[str] = []

    # -- the runtime interface --------------------------------------------

    def spawn(self, pid: str) -> ThreadProcess:
        if pid in self.processes:
            raise ValueError(f"duplicate pid {pid!r}")
        process = ThreadProcess(pid)
        self.processes[pid] = process
        return process

    def add_program(self, pid: str, ops: List[Op]) -> ThreadProcess:
        process = self.processes.get(pid) or self.spawn(pid)
        return process.assign(ops)

    def add_op_source(
        self,
        pid: str,
        factory: Callable[[], Optional[Op]],
        max_ops: Optional[int] = None,
    ) -> ThreadProcess:
        process = self.processes.get(pid) or self.spawn(pid)
        return process.set_source(factory, max_ops)

    @property
    def history(self) -> History:
        return self._history

    @property
    def steps_taken(self) -> int:
        return self._steps

    def run(self, duration: Optional[float] = None) -> History:
        """Drive every process on its own thread until programs finish.

        With ``duration`` (seconds) each thread also stops before
        starting an operation once the shared deadline has passed —
        operations in flight always complete, so the recorded history
        contains no artificial pending operations.

        Joins are bounded by progress, not by the clock: once no
        operation has completed for ``join_watchdog`` seconds, the
        threads still running are reported by pid in a
        :class:`~repro.rt.base.WatchdogTimeout` instead of hanging the
        harness forever.  A slow run that keeps completing operations is
        never cut.  Pass ``join_watchdog=None`` to restore unbounded
        joins.
        """
        procs = list(self.processes.values())
        if not procs:
            return self._history
        self._stop.clear()
        self._live = len(procs)
        self._wakeups = {
            process.pid: threading.Condition(self._fault_lock)
            for process in procs
        }
        # All threads block on the barrier until everyone is spawned, so
        # the measured window contains no thread start-up skew and the
        # deadline is shared by construction.
        barrier = threading.Barrier(len(procs) + 1)
        threads = [
            threading.Thread(
                target=self._drive,
                args=(process, barrier, duration),
                name=f"rt-{process.pid}",
                daemon=True,
            )
            for process in procs
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        self._progress_at = time.monotonic()
        watchdog = self.join_watchdog
        for thread in threads:
            if watchdog is None:
                thread.join()
                continue
            # Workers stamp _progress_at after each completed operation:
            # wait until the stamp is watchdog seconds old, then look
            # again.
            while thread.is_alive():
                idle = time.monotonic() - self._progress_at
                if idle >= watchdog:
                    break
                thread.join(watchdog - idle)
        stuck = sorted(
            thread.name.removeprefix("rt-")
            for thread in threads
            if thread.is_alive()
        )
        self.elapsed = time.perf_counter() - started
        if stuck:
            # Daemon threads: the interpreter can still exit.  Ask the
            # survivors to stop and surface who is hung rather than
            # blocking the harness forever.
            self._stop.set()
            raise WatchdogTimeout(
                f"thread runtime: thread(s) {stuck} completed no "
                f"operation for {watchdog:g}s; likely deadlocked"
            )
        if self._errors:
            pid, first = self._errors[0]
            raise RuntimeError(
                f"thread runtime: process {pid!r} failed "
                f"({len(self._errors)} error(s) total)"
            ) from first
        return self._history

    # -- internals ---------------------------------------------------------

    def _drive(
        self,
        process: ThreadProcess,
        barrier: threading.Barrier,
        duration: Optional[float],
    ) -> None:
        barrier.wait()
        deadline = None if duration is None else time.monotonic() + duration
        local_latencies: List[Tuple[str, str, float]] = []
        try:
            while not self._stop.is_set():
                if deadline is not None and time.monotonic() >= deadline:
                    break
                op = process._take_next_op()
                if op is None:
                    break
                self._run_op(process, op, local_latencies)
        except _CrashFault:
            # Injected crash: the in-flight operation stays pending
            # (recorded as a crash event), the thread stops cleanly,
            # and the run is *not* an error.
            pass
        except BaseException as exc:  # noqa: BLE001 - reported at join
            with self._err_lock:
                self._errors.append((process.pid, exc))
            self._stop.set()
        finally:
            with self._err_lock:
                self.latencies.extend(local_latencies)
            if self._interpreter is not None:
                with self._fault_lock:
                    self._live -= 1
                    self._release_held()

    def _run_op(
        self,
        process: ThreadProcess,
        op: Op,
        latencies: List[Tuple[str, str, float]],
    ) -> None:
        pid = process.pid
        op_id = process.op_counter
        process.op_counter += 1
        start = time.perf_counter() if self.record_latency else 0.0
        with self._hist_lock:
            self._history.record_invocation(pid, op_id, op.name, op.args)

        def apply_locked(pending):
            if self._interpreter is not None:
                self._consult_faults(pid, op_id, pending)
            obj = pending.obj
            with self._hist_lock:
                result = obj.apply(pending.primitive, pending.args)
                self._history.record_primitive(
                    pid,
                    op_id,
                    obj.name,
                    pending.primitive,
                    pending.args,
                    result,
                )
                self._steps += 1
            return result

        result = drive_op(pid, op, apply_locked)
        with self._hist_lock:
            self._history.record_response(pid, op_id, op.name, result)
        self._progress_at = time.monotonic()
        if self.record_latency:
            latencies.append((pid, op.name, time.perf_counter() - start))

    def _consult_faults(self, pid: str, op_id: int, pending: Any) -> None:
        """One primitive arrival through the fault interpreter: a crash
        (of the requester) records its event and raises
        :class:`_CrashFault`; a held arrival waits until released."""
        interpreter = self._interpreter
        with self._fault_lock:
            decision, held = interpreter.admit(
                pid, pending.obj.name, pending.primitive, pid
            )
            if held:
                self._held.add(pid)
            if interpreter.held:
                self._release_held()
            while pid in self._held:
                self._wakeups[pid].wait()
        if isinstance(decision, CrashDecision):
            with self._hist_lock:
                self._history.record_crash(pid, op_id)
                self.crashed.append(pid)
            raise _CrashFault(pid)

    def _release_held(self) -> None:
        """Wake the held threads the interpreter releases, in arrival
        order (caller holds the fault lock)."""
        for pid in self._interpreter.release(self._live):
            self._held.discard(pid)
            self._wakeups[pid].notify()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThreadRuntime(processes={len(self.processes)}, "
            f"steps={self._steps})"
        )
