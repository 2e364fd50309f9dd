"""Schedules: the adversary choosing which process steps next.

The paper quantifies over *all* executions; a schedule is our adversary
generating one.  Schedules see the runnable processes (including the
primitive each is about to apply, via ``Process.pending``) and pick one.

Provided policies:

- :class:`RoundRobinSchedule` -- fair, deterministic.
- :class:`RandomSchedule` -- seeded uniform choice; sweeping seeds
  samples the execution space.
- :class:`ReplaySchedule` -- replays an explicit pid sequence (used to
  construct the paper's hand-crafted interleavings in tests).
- :class:`PrioritySchedule` -- weighted random choice; used for reader
  storms (E1) and writer-starved scenarios.
- :class:`InterposingSchedule` -- schedules a victim process until it is
  about to apply a primitive matching a predicate, then lets attackers
  run; used to build worst-case write-retry executions (Lemma 2's bound).

Fault injection rides on the same seam: instead of a process to step, a
schedule's ``choose`` may return :class:`CrashDecision` and the runner
crashes that process at this step.  This makes crash faults part of the
schedule space an adversary (in particular the fuzzer, :mod:`repro.fuzz`)
explores, rather than something experiments must script by hand.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.process import Process


def _by_pid(process: Process) -> str:
    return process.pid


def ordered_by_pid(runnable: List[Process]) -> List[Process]:
    """The runnable list in pid order, without re-sorting when possible.

    :meth:`repro.sim.runner.Simulation.step` hands schedules an
    already-sorted list, so the common case is a single O(n) sortedness
    check with no allocation; only externally built, unsorted lists pay
    for a real sort.  The returned list must not be mutated.
    """
    previous = None
    for process in runnable:
        if previous is not None and process.pid < previous:
            return sorted(runnable, key=_by_pid)
        previous = process.pid
    return runnable


class CrashDecision:
    """A schedule decision that crashes a process instead of stepping one.

    When ``Schedule.choose`` returns ``CrashDecision(pid)``, the runner
    calls :meth:`repro.sim.runner.Simulation.crash` on that process and
    the step is consumed by the crash.  The pid must name an existing,
    not-yet-crashed process (it need not be runnable: crashing an idle
    process models a stop between operations).

    The process runtime (:mod:`repro.rt.process_runtime`) interprets the
    same decision at its memory server: the process is crashed at its
    next primitive request, mid-operation, and the pending operation
    stays pending in the history.  Fault plans for the message-passing
    backend therefore speak the exact vocabulary the fuzzer's schedule
    adversaries already emit.
    """

    family = "crash"
    __slots__ = ("pid",)

    def __init__(self, pid: str) -> None:
        self.pid = pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrashDecision({self.pid!r})"


class DelayDecision:
    """A schedule decision that delays a process's pending primitive.

    In the simulator, delaying a process is just the schedule not
    choosing it, so the simulator never needs this decision explicitly.
    Message-passing runtimes do: the memory server of
    :mod:`repro.rt.process_runtime` holds the process's in-flight
    primitive request while (roughly) ``steps`` later-arriving messages
    from other processes are served first — modeling network delay and
    message reorder as a first-class schedule decision, on the same seam
    as :class:`CrashDecision`.
    """

    family = "delay"
    __slots__ = ("pid", "steps")

    def __init__(self, pid: str, steps: int = 4) -> None:
        if steps < 1:
            raise ValueError("delay must cover at least one step")
        self.pid = pid
        self.steps = steps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DelayDecision({self.pid!r}, steps={self.steps})"


class PartitionDecision:
    """Sever a set of processes from the shared memory for a while.

    In the simulator the named pids are excluded from the schedulable
    view for the next ``steps`` scheduler steps — a partition is
    subsumed by scheduling freedom, so no history event is recorded and
    every oracle stays sound by construction.  If only partitioned
    processes still have work, the partition heals immediately (the
    same rule the memory server applies to its held requests), so a
    partition can stall progress but never deadlock a run.

    The memory server of :mod:`repro.rt.process_runtime` parks primitive
    requests arriving from partitioned pids and serves them, in arrival
    order, once ``steps`` further arrivals have been served, or as soon
    as every live worker is blocked on a held request (no timer).  The
    partitioned operation stays invoked-but-unanswered while parked,
    exactly like a slow network path.
    """

    family = "partition"
    __slots__ = ("pids", "steps")

    def __init__(self, pids: Sequence[str], steps: int = 4) -> None:
        if isinstance(pids, str):
            pids = (pids,)
        self.pids = tuple(sorted(set(pids)))
        if not self.pids:
            raise ValueError("a partition must name at least one pid")
        if steps < 1:
            raise ValueError("a partition must cover at least one step")
        self.steps = steps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionDecision({self.pids!r}, steps={self.steps})"


class RecoverDecision:
    """Restart a crashed process from a fresh replica.

    The recovered process keeps its pid and resumes its program with
    the operation *after* the one it crashed in: the crashed operation
    stays pending in the history forever (its response never arrives),
    and subsequent operations get fresh op_ids, so the linearizability
    checker sees an ordinary process with one more pending operation —
    no new history event kind is needed.

    In the process runtime the worker rebuilds its replica via the
    picklable ``build`` factory and re-derives its program from the
    program/source factory before continuing — a genuine
    restart-from-checkpoint, not a resumed in-memory object.
    """

    family = "recover"
    __slots__ = ("pid",)

    def __init__(self, pid: str) -> None:
        self.pid = pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecoverDecision({self.pid!r})"


class DuplicateDecision:
    """Re-deliver the named process's most recently applied primitive.

    The memory applies the duplicated request a second time and records
    the second application in the history under the original operation
    — the per-object log keeps matching the true application order, so
    the audit oracle judges exactly what the memory really did.  No
    result is delivered to the process (it already has its reply), so
    the linearizability checker is unaffected.

    This is the decision that exercises non-idempotent primitives: a
    duplicated ``fetch&xor`` flips an announce bit back (XOR is an
    involution), a duplicated compare&swap simply fails the second
    time.  Only applicable to a pid that has an applied primitive to
    re-deliver; samplers and the lenient replayer skip it otherwise.
    """

    family = "dup"
    __slots__ = ("pid",)

    def __init__(self, pid: str) -> None:
        self.pid = pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DuplicateDecision({self.pid!r})"


class OmitDecision:
    """Drop the named process's in-flight primitive request.

    The request is never applied and never recorded; the process
    abandons the operation it was executing (in the process runtime the
    worker sees the omission as a timeout) and continues with its next
    operation.  The abandoned operation stays pending in the history —
    the same conservative "may or may not have happened" treatment a
    crash gets, except the process itself lives on.
    """

    family = "omit"
    __slots__ = ("pid",)

    def __init__(self, pid: str) -> None:
        self.pid = pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OmitDecision({self.pid!r})"


#: The fault-family registry: family name -> the decision class a
#: ``Schedule.choose`` / ``FaultPlan.decide`` may return instead of a
#: process to step.  Family names are also the fuzz trace kinds.
FAULT_DECISIONS = {cls.family: cls for cls in (
    CrashDecision, DelayDecision, PartitionDecision,
    DuplicateDecision, OmitDecision, RecoverDecision,
)}


class Schedule:
    """Base class: pick the next process to step.

    ``choose`` returns either a :class:`~repro.sim.process.Process` from
    the runnable list or a :class:`CrashDecision` (fault injection).
    """

    def choose(self, runnable: List[Process], step_index: int) -> Process:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget internal state (called when a simulation restarts)."""


class RoundRobinSchedule(Schedule):
    """Cycle through runnable processes in pid order."""

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, runnable: List[Process], step_index: int) -> Process:
        ordered = ordered_by_pid(runnable)
        process = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return process

    def reset(self) -> None:
        self._cursor = 0


class RandomSchedule(Schedule):
    """Uniform seeded random choice among runnable processes."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, runnable: List[Process], step_index: int) -> Process:
        return self._rng.choice(ordered_by_pid(runnable))

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class ReplaySchedule(Schedule):
    """Replay an explicit sequence of pids.

    When the scripted pid is not runnable (or the script is exhausted),
    falls back to the first runnable process; strict mode raises instead.
    """

    def __init__(self, pids: Sequence[str], strict: bool = False) -> None:
        self.pids = list(pids)
        self.strict = strict
        self._cursor = 0

    def choose(self, runnable: List[Process], step_index: int) -> Process:
        by_pid = {p.pid: p for p in runnable}
        while self._cursor < len(self.pids):
            pid = self.pids[self._cursor]
            self._cursor += 1
            if pid in by_pid:
                return by_pid[pid]
            if self.strict:
                raise RuntimeError(
                    f"replay schedule expected {pid!r} to be runnable at "
                    f"step {step_index}; runnable: {sorted(by_pid)}"
                )
        if self.strict:
            raise RuntimeError("replay schedule exhausted")
        return min(runnable, key=lambda p: p.pid)

    def reset(self) -> None:
        self._cursor = 0


class PrioritySchedule(Schedule):
    """Weighted seeded random choice.

    ``weights`` maps pid prefixes to relative weights; a process's weight
    is the weight of the longest matching prefix (default 1.0).  Giving
    readers weight 20 and the writer weight 1 produces the read-storm
    adversary of experiment E1.
    """

    def __init__(
        self, weights: Dict[str, float], seed: int = 0, default: float = 1.0
    ) -> None:
        self.weights = dict(weights)
        self.default = default
        self.seed = seed
        self._rng = random.Random(seed)
        # The longest-prefix match is recomputed at most once per pid;
        # the weights mapping is treated as fixed after construction.
        self._weight_cache: Dict[str, float] = {}

    def _weight(self, pid: str) -> float:
        cached = self._weight_cache.get(pid)
        if cached is not None:
            return cached
        best_len = -1
        best = self.default
        for prefix, weight in self.weights.items():
            if pid.startswith(prefix) and len(prefix) > best_len:
                best_len = len(prefix)
                best = weight
        self._weight_cache[pid] = best
        return best

    def choose(self, runnable: List[Process], step_index: int) -> Process:
        ordered = ordered_by_pid(runnable)
        weights = [self._weight(p.pid) for p in ordered]
        return self._rng.choices(ordered, weights=weights, k=1)[0]

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class InterposingSchedule(Schedule):
    """Adversary that interposes attacker steps before a victim primitive.

    Runs ``victim`` until its next pending primitive satisfies
    ``trigger``; at that point lets each process in ``interposers`` take
    ``burst`` steps, then allows the victim's primitive.  This builds the
    worst case for the write loop of Algorithm 1: a reader's fetch&xor is
    interposed between the writer's read of R and its compare&swap, making
    the compare&swap fail (once per reader, so at most m failures --
    Lemma 2's bound is m+1 iterations).
    """

    def __init__(
        self,
        victim: str,
        interposers: Sequence[str],
        trigger: Callable[[object], bool],
        burst: int = 1,
    ) -> None:
        self.victim = victim
        self.interposers = list(interposers)
        self.trigger = trigger
        self.burst = burst
        self._queue: List[str] = []
        self._finishing: Optional[str] = None
        self._interposed_for: Optional[object] = None

    def choose(self, runnable: List[Process], step_index: int) -> Process:
        by_pid = {p.pid: p for p in runnable}
        # Let the current interposer finish its whole operation first.
        if self._finishing is not None:
            process = by_pid.get(self._finishing)
            if process is not None and process.is_mid_operation():
                return process
            self._finishing = None
        while self._queue:
            pid = self._queue.pop(0)
            if pid in by_pid:
                self._finishing = pid
                return by_pid[pid]
        victim = by_pid.get(self.victim)
        if victim is None:
            return min(runnable, key=lambda p: p.pid)
        pending = victim.pending
        if (
            pending is not None
            and pending is not self._interposed_for
            and self.trigger(pending)
        ):
            # Interpose once per distinct pending primitive: each retry
            # of the victim (a fresh yield) can be interposed again.
            self._interposed_for = pending
            queued = [
                pid
                for _ in range(self.burst)
                for pid in self.interposers
                if pid in by_pid
            ]
            if queued:
                self._finishing = queued[0]
                self._queue = queued[1:]
                return by_pid[queued[0]]
        return victim

    def reset(self) -> None:
        self._queue = []
        self._finishing = None
        self._interposed_for = None


def schedule_from_seed(seed: Optional[int]) -> Schedule:
    """Convenience: ``None`` -> round robin, int -> seeded random."""
    if seed is None:
        return RoundRobinSchedule()
    return RandomSchedule(seed)
