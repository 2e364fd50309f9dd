"""Executing fuzzed schedules: sample, record, replay.

One module owns the ways a decision sequence meets a live
:class:`~repro.sim.runner.Simulation`, all through the runner's schedule
seam and one build-run-judge helper:

- :func:`run_one` -- *sampling*: a :class:`~repro.fuzz.samplers.ScheduleSampler`
  chooses each decision (faults included, as the decision objects of
  :mod:`repro.sim.scheduler`); every decision is recorded, producing a
  closed :class:`ScheduleTrace`.
- :func:`replay_trace` -- *strict replay*: the recorded decisions run as
  a strict :class:`~repro.sim.scheduler.ReplaySchedule` against a fresh
  system; any divergence (an entry that does not apply, decisions left
  over, the run not terminating) raises :class:`ReplayMismatch`.  Used
  by ``repro fuzz --replay`` and the byte-identity tests.
- :func:`run_decisions_lenient` -- *tolerant replay* for the shrinker:
  the same schedule, lenient, skips entries that do not apply and
  completes the run lowest-pid-first, so every candidate yields a
  complete execution whose *effective* decision sequence the strict
  schedule re-executes by construction.

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
    FAULT_KINDS,
    OMIT,
    PARTITION,
    STEP,
    Decision,
    ScheduleTrace,
    partition_entry,
)
from repro.sim.runner import Simulation
from repro.sim.scheduler import (
    FAULT_DECISIONS,
    PartitionDecision,
    ReplayMismatch,
    ReplaySchedule,
    Schedule,
    fault_applicable,
    ordered_by_pid,
)

#: Default per-run schedule-length budget.
DEFAULT_MAX_STEPS = 2048


def decision_to_fault(decision: Decision):
    """The scheduler decision object for a non-step trace entry: trace
    kinds are family names in :data:`~repro.sim.scheduler.FAULT_DECISIONS`."""
    kind = decision[0]
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown decision kind {kind!r}")
    if kind == PARTITION:
        return PartitionDecision(decision[1].split(","), steps=decision[2])
    return FAULT_DECISIONS[kind](decision[1])


def _script_entry(decision: Decision):
    """The :class:`ReplaySchedule` entry for a trace decision."""
    return decision[1] if decision[0] == STEP else decision_to_fault(decision)


def _trace_decision(entry) -> Decision:
    """Inverse of :func:`_script_entry`."""
    if isinstance(entry, str):
        return (STEP, entry)
    if isinstance(entry, PartitionDecision):
        return partition_entry(entry.pids, entry.steps)
    return (entry.family, entry.pid)


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

        Only faults :func:`~repro.sim.scheduler.fault_applicable` rules
        applicable right now are offered, so a recorded trace never
        contains a fault strict replay could not re-apply (a duplicate
        with nothing to re-deliver, a recovery of a live process).
        """
        target, sim = self.target, self.sim
        if sim is None or not target.faults:
            return None
        if self.faults_used >= target.max_faults:
            return None
        menu = {}
        for kind in target.faults:
            if kind == PARTITION and len(steppable) < 2:
                # Severing the whole runnable set is pointless (the
                # runner heals an all-partitioned system immediately).
                continue
            # Omissions and partitions aim at pids the schedule could
            # step now; a duplicate or recovery at any pid.
            pool = (
                steppable if kind in (OMIT, PARTITION)
                else sorted(sim.processes)
            )
            pids = tuple(
                pid for pid in pool
                if target.fault_eligible(pid)
                and fault_applicable(sim, kind, pid)
            )
            if pids:
                menu[kind] = pids
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


def _execute(
    target: FuzzTarget,
    make_schedule: Callable,
    max_steps: Optional[int],
) -> Tuple[Schedule, Optional[str], bool]:
    """Build ``target``'s system, run it under
    ``make_schedule(sim, context)`` for at most ``max_steps`` steps, and
    judge it.

    Returns ``(schedule, verdict, complete)``.  An exception an
    operation raises mid-run is the verdict; a run the budget cut short
    is incomplete and not judged.  A :class:`ReplayMismatch` is no
    verdict: it propagates.
    """
    factory, check = target.build()
    sim, context = factory()
    schedule = sim.schedule = make_schedule(sim, context)
    try:
        sim.run(max_steps=max_steps)
    except ReplayMismatch:
        raise
    except Exception as exc:  # an operation blew up mid-schedule
        return schedule, f"{type(exc).__name__}: {exc}", True
    if sim.runnable():
        return schedule, None, False
    return schedule, _judge(check, sim, context), True


def _replay(decisions: Sequence[Decision], strict: bool) -> Callable:
    """A ``make_schedule`` for :func:`_execute` replaying ``decisions``."""
    script = [_script_entry(decision) for decision in decisions]
    return lambda sim, context: ReplaySchedule(script, strict, sim=sim)


def run_one(
    target: FuzzTarget,
    seed: int,
    sampler: ScheduleSampler,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> FuzzRunResult:
    """One fuzzed execution of ``target``: sample, record, judge."""

    def recording(sim, context):
        fingerprint = None
        if sampler.needs_fingerprints:
            from repro.mc import configuration_fingerprint
            from repro.sim.vault import StateVault

            vault = StateVault(sim, roots=[context])

            def fingerprint():
                vault.adopt_new()
                return configuration_fingerprint(sim, vault)[0]

        sampler.begin_run(seed, sorted(sim.processes), max_steps)
        return _RecordingSchedule(sampler, target, fingerprint, sim=sim)

    schedule, verdict, complete = _execute(target, recording, max_steps)
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


def replay_trace(target: FuzzTarget, trace: ScheduleTrace) -> FuzzRunResult:
    """Re-execute a recorded trace exactly; judge the result.

    The returned result's trace carries the *re-recorded* verdict --
    byte-identical replay means its canonical serialization equals the
    input's (``dumps_trace``); callers assert that, this function only
    guarantees the same decisions were applied.
    """
    schedule, verdict, _ = _execute(
        target, _replay(trace.decisions, strict=True), None
    )
    steps = len(schedule.applied)
    if steps != len(trace.decisions):
        raise ReplayMismatch(
            f"run terminated after {steps} of "
            f"{len(trace.decisions)} decisions"
        )
    return FuzzRunResult(
        trace=trace.with_decisions(trace.decisions, verdict),
        steps=steps,
        complete=True,
    )


def run_decisions_lenient(
    target: FuzzTarget,
    decisions: Sequence[Decision],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Tuple[Optional[str], Tuple[Decision, ...]]:
    """Apply a candidate decision sequence, skipping entries that do
    not apply, then complete the run lowest-pid-first (the shrinker's
    probe).

    Returns ``(verdict, effective decisions)``.  The effective sequence
    contains exactly the decisions that executed (applied candidates
    plus deterministic completion steps, the one whose step raised
    included), so it is closed: the lenient and strict
    :class:`ReplaySchedule` rule entries alike under the same
    :meth:`Simulation.step`, and replaying it strictly reproduces this
    execution.
    """
    schedule, verdict, _ = _execute(
        target, _replay(decisions, strict=False), max_steps
    )
    return verdict, tuple(_trace_decision(e) for e in schedule.applied)
