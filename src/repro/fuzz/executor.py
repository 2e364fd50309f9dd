"""Executing fuzzed schedules: sample, record, replay.

One module owns the three ways a decision sequence meets a live
:class:`~repro.sim.runner.Simulation`:

- :func:`run_one` -- *sampling*: a :class:`~repro.fuzz.samplers.ScheduleSampler`
  chooses each decision through the runner's schedule seam (crashes
  included, via :class:`repro.sim.scheduler.CrashDecision`); every
  decision is recorded, producing a closed :class:`ScheduleTrace`.
- :func:`replay_trace` -- *strict replay*: the recorded decisions are
  re-executed against a fresh system; any divergence (a scripted pid
  not runnable, decisions left over, the run not terminating) raises
  :class:`ReplayMismatch`.  Used by ``repro fuzz --replay`` and the
  byte-identity tests.
- :func:`run_decisions_lenient` -- *tolerant replay* for the shrinker:
  inapplicable decisions are skipped, and after the candidate sequence
  is exhausted the run is completed deterministically (lowest pid
  first), so every candidate yields a complete execution whose
  *effective* decision sequence is again closed.

All three judge the finished execution with the target's oracle;
exceptions raised by operations or by the oracle are themselves
verdicts (a starved lock-free retry loop is a finding, not a crash of
the fuzzer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.fuzz.samplers import ScheduleSampler
from repro.fuzz.targets import FuzzTarget
from repro.fuzz.trace import (
    CRASH,
    DUPLICATE,
    FAULT_KINDS,
    OMIT,
    PARTITION,
    RECOVER,
    STEP,
    Decision,
    ScheduleTrace,
)
from repro.sim.process import ProcessState
from repro.sim.runner import Simulation
from repro.sim.scheduler import (
    FAULT_DECISIONS,
    PartitionDecision,
    Schedule,
    ordered_by_pid,
)

#: Default per-run schedule-length budget.
DEFAULT_MAX_STEPS = 2048


class ReplayMismatch(RuntimeError):
    """A trace does not apply to the system its target builds."""


def decision_to_fault(decision: Decision):
    """The scheduler decision object for a non-step trace entry: trace
    kinds are family names in :data:`~repro.sim.scheduler.FAULT_DECISIONS`."""
    kind = decision[0]
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown decision kind {kind!r}")
    if kind == PARTITION:
        return PartitionDecision(decision[1].split(","), steps=decision[2])
    return FAULT_DECISIONS[kind](decision[1])


@dataclass
class FuzzRunResult:
    """Outcome of one fuzzed (or replayed) execution."""

    trace: ScheduleTrace
    steps: int
    complete: bool
    coverage_states: Optional[int] = None

    @property
    def verdict(self) -> Optional[str]:
        return self.trace.verdict

    @property
    def violating(self) -> bool:
        return self.trace.verdict is not None


def _judge(check: Callable, sim: Simulation, context) -> Optional[str]:
    """Run the oracle on a complete execution; exceptions are verdicts."""
    try:
        return check(sim, context)
    except Exception as exc:  # deterministic given the schedule
        return f"{type(exc).__name__}: {exc}"


class _RecordingSchedule(Schedule):
    """Adapts a sampler into the runner's schedule seam, recording
    every decision and enforcing the target's crash and fault policy."""

    def __init__(
        self,
        sampler: ScheduleSampler,
        target: FuzzTarget,
        fingerprint=None,
        sim: Optional[Simulation] = None,
    ) -> None:
        self.sampler = sampler
        self.target = target
        self.fingerprint = fingerprint
        self.sim = sim
        self.decisions: List[Decision] = []
        self.crashes_used = 0
        self.faults_used = 0

    def _faultable(self, steppable):
        """Per-step fault menu for the sampler: kind -> eligible pids.

        Only faults that are *applicable right now* are offered, so a
        recorded trace never contains a fault strict replay could not
        re-apply (a duplicate with nothing to re-deliver, a recovery of
        a live process).
        """
        target, sim = self.target, self.sim
        if sim is None or not target.faults:
            return None
        if self.faults_used >= target.max_faults:
            return None
        menu = {}
        for kind in target.faults:
            if kind == DUPLICATE:
                pids = [
                    pid for pid in sim.duplicable_pids()
                    if target.fault_eligible(pid)
                ]
            elif kind == RECOVER:
                pids = [
                    pid for pid in sim.recoverable_pids()
                    if target.fault_eligible(pid)
                ]
            elif kind == OMIT:
                pids = [
                    pid for pid in steppable
                    if target.fault_eligible(pid)
                    and sim.processes[pid].is_mid_operation()
                ]
            elif kind == PARTITION:
                # Severing the whole runnable set is pointless (the
                # runner heals an all-partitioned system immediately),
                # so partitions need at least two steppable processes.
                pids = (
                    [
                        pid for pid in steppable
                        if target.fault_eligible(pid)
                    ]
                    if len(steppable) >= 2
                    else []
                )
            else:
                continue
            if pids:
                menu[kind] = tuple(pids)
        return menu or None

    def choose(self, runnable, step_index):
        # The runner hands schedules an already pid-sorted list
        # (Simulation._runnable_view); ordered_by_pid only re-sorts
        # externally built inputs.
        ordered = ordered_by_pid(runnable)
        steppable = [p.pid for p in ordered]
        crashable = (
            [
                pid for pid in steppable
                if self.target.crash_eligible(pid)
            ]
            if self.crashes_used < self.target.max_crashes
            else []
        )
        faultable = self._faultable(steppable)
        fp = self.fingerprint() if self.fingerprint is not None else None
        decision = tuple(self.sampler.choose(
            steppable, crashable, step_index,
            fingerprint=fp, faultable=faultable,
        ))
        self.decisions.append(decision)
        kind = decision[0]
        if kind == STEP:
            return ordered[steppable.index(decision[1])]
        if kind == CRASH:
            self.crashes_used += 1
        else:
            self.faults_used += 1
        return decision_to_fault(decision)


def run_one(
    target: FuzzTarget,
    seed: int,
    sampler: ScheduleSampler,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> FuzzRunResult:
    """One fuzzed execution of ``target``: sample, record, judge."""
    factory, check = target.build()
    sim, context = factory()
    fingerprint = None
    if sampler.needs_fingerprints:
        from repro.mc import configuration_fingerprint
        from repro.sim.checkpoint import StateVault

        vault = StateVault(sim, roots=[context])

        def fingerprint():
            vault.adopt_new()
            return configuration_fingerprint(sim, vault)[0]

    sampler.begin_run(seed, sorted(sim.processes), max_steps)
    schedule = _RecordingSchedule(sampler, target, fingerprint, sim=sim)
    sim.schedule = schedule
    verdict_exc: Optional[str] = None
    try:
        sim.run(max_steps=max_steps)
    except Exception as exc:  # an operation blew up mid-schedule
        verdict_exc = f"{type(exc).__name__}: {exc}"
    complete = verdict_exc is not None or not sim.runnable()
    if verdict_exc is not None:
        verdict: Optional[str] = verdict_exc
    elif complete:
        verdict = _judge(check, sim, context)
    else:
        verdict = None  # budget exhausted mid-run: nothing judged
    trace = ScheduleTrace(
        target=target.name,
        seed=seed,
        sampler=sampler.name,
        decisions=tuple(schedule.decisions),
        verdict=verdict,
    )
    states = None
    if sampler.needs_fingerprints:
        states = len(getattr(sampler, "states", ()) or ())
    return FuzzRunResult(
        trace=trace,
        steps=len(schedule.decisions),
        complete=complete,
        coverage_states=states,
    )


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

class _ScriptedSchedule(Schedule):
    """Strictly replay a decision sequence through the schedule seam."""

    def __init__(self, decisions: Sequence[Decision]) -> None:
        self.decisions = list(decisions)
        self.cursor = 0

    def choose(self, runnable, step_index):
        if self.cursor >= len(self.decisions):
            raise ReplayMismatch(
                "trace exhausted but processes are still runnable: "
                f"{sorted(p.pid for p in runnable)}"
            )
        decision = self.decisions[self.cursor]
        self.cursor += 1
        if decision[0] != STEP:
            # Faults apply unconditionally: the runner raises (and the
            # caller reports a verdict) if the trace lies about
            # applicability, which a recorded trace never does.
            return decision_to_fault(decision)
        pid = decision[1]
        for process in runnable:
            if process.pid == pid:
                return process
        raise ReplayMismatch(
            f"trace expects {pid!r} runnable at step {step_index}; "
            f"runnable: {sorted(p.pid for p in runnable)}"
        )


def replay_trace(target: FuzzTarget, trace: ScheduleTrace) -> FuzzRunResult:
    """Re-execute a recorded trace exactly; judge the result.

    The returned result's trace carries the *re-recorded* verdict --
    byte-identical replay means its canonical serialization equals the
    input's (``dumps_trace``); callers assert that, this function only
    guarantees the same decisions were applied.
    """
    factory, check = target.build()
    sim, context = factory()
    schedule = _ScriptedSchedule(trace.decisions)
    sim.schedule = schedule
    verdict_exc: Optional[str] = None
    try:
        sim.run(max_steps=len(trace.decisions))
    except ReplayMismatch:
        raise
    except Exception as exc:
        verdict_exc = f"{type(exc).__name__}: {exc}"
    if verdict_exc is None:
        if schedule.cursor != len(trace.decisions):
            raise ReplayMismatch(
                f"run terminated after {schedule.cursor} of "
                f"{len(trace.decisions)} decisions"
            )
        if sim.runnable():
            raise ReplayMismatch(
                "decisions exhausted but processes are still runnable: "
                f"{sorted(p.pid for p in sim.runnable())}"
            )
        verdict = _judge(check, sim, context)
    else:
        verdict = verdict_exc
    return FuzzRunResult(
        trace=trace.with_decisions(trace.decisions, verdict),
        steps=schedule.cursor,
        complete=True,
    )


# ----------------------------------------------------------------------
# Tolerant execution (the shrinker's probe)
# ----------------------------------------------------------------------

def _fault_applicable(sim: Simulation, decision: Decision) -> bool:
    """Would strict replay be able to consume this fault right now?

    The rules mirror what :class:`_RecordingSchedule` offers samplers,
    so every decision the lenient pass keeps is one a recorded trace
    could contain.
    """
    kind = decision[0]
    if kind == CRASH:
        process = sim.processes.get(decision[1])
        return (
            process is not None
            and process.state is not ProcessState.CRASHED
        )
    if kind == RECOVER:
        return decision[1] in sim.recoverable_pids()
    if kind == DUPLICATE:
        return decision[1] in sim.duplicable_pids()
    if kind == OMIT:
        process = sim.processes.get(decision[1])
        return process is not None and process.is_mid_operation()
    if kind == PARTITION:
        return any(
            pid in sim.processes and sim.processes[pid].has_work()
            for pid in decision[1].split(",")
        )
    return False


def run_decisions_lenient(
    target: FuzzTarget,
    decisions: Sequence[Decision],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Tuple[Optional[str], Tuple[Decision, ...]]:
    """Apply a candidate decision sequence, skipping inapplicable
    entries, then complete the run lowest-pid-first.

    Returns ``(verdict, effective decisions)``.  The effective sequence
    contains exactly the decisions that executed (applied candidates
    plus deterministic completion steps), so it is closed: replaying it
    strictly reproduces this execution.  Faults consume one step each
    (:meth:`Simulation.inject` mirrors :meth:`Simulation.step`), so
    partition-heal arithmetic agrees between this pass and strict
    replay of its effective sequence.
    """
    factory, check = target.build()
    sim, context = factory()
    applied: List[Decision] = []
    try:
        for decision in decisions:
            if len(applied) >= max_steps:
                break
            if not sim.runnable():
                # The run is over; any remaining decision (e.g. a
                # crash shifted past completion by earlier removals)
                # could never be consumed by strict replay, so keeping
                # it would break the closure contract.
                break
            kind = decision[0]
            if kind != STEP:
                if not _fault_applicable(sim, decision):
                    continue
                applied.append(decision)
                sim.inject(decision_to_fault(decision))
                continue
            pid = decision[1]
            process = sim.processes.get(pid)
            if process is None or not process.has_work():
                continue
            if sim.is_partitioned(pid):
                # Strict replay could not step a severed pid.  This
                # check errs conservative (healing is monotone), so a
                # skipped step only shortens the effective sequence --
                # never breaks its replayability.
                continue
            # Appended before stepping so that a decision whose step
            # raises is still part of the effective sequence (matching
            # run_one, which records the decision as it is chosen).
            applied.append((STEP, pid))
            sim.step_process(pid)
        while len(applied) < max_steps:
            visible = sim.schedulable()
            if not visible:
                break
            pid = min(p.pid for p in visible)
            applied.append((STEP, pid))
            sim.step_process(pid)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}", tuple(applied)
    if sim.runnable():
        return None, tuple(applied)  # budget exhausted: not judged
    return _judge(check, sim, context), tuple(applied)
