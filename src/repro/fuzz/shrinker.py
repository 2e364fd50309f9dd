"""Counterexample shrinking: delta-debugging on schedule traces.

Contract
--------

:func:`shrink_trace` takes a closed, violating :class:`ScheduleTrace`
and returns a locally-minimal trace with the *identical* verdict:

- **soundness** -- every candidate is validated by re-executing it
  against a fresh system and re-running the target's oracle
  (:func:`repro.fuzz.executor.run_decisions_lenient`); a candidate is
  accepted only if the oracle returns the exact verdict string of the
  original.  Nothing about the shrink is trusted structurally: the
  returned trace provably reproduces, because reproducing it is the
  acceptance test.
- **closure** -- accepted candidates are replaced by their *effective*
  decision sequence (skipped entries dropped, deterministic completion
  steps appended).  Candidates run through the same
  :class:`~repro.sim.scheduler.ReplaySchedule` and
  :meth:`~repro.sim.runner.Simulation.step` as strict replay
  (`repro fuzz --replay`), only lenient, so the result is closed by
  construction: strict replay re-executes it byte-identically.
- **local minimality / idempotence** -- candidates are accepted only
  when strictly shorter, and the cascade of reductions is repeated
  until one complete cascade removes nothing.  A trace that survives
  shrinking is therefore locally minimal under the reduction family:
  shrinking it again is a no-op returning the byte-identical trace
  (asserted by the test suite).

Four reduction operators make up the family:

- *window removal* -- drop a contiguous window of decisions (classic
  ddmin, coarse-to-fine).  Note that for crash-free targets the
  effective length of a completed run is an invariant (every process
  must finish its fixed program, in any order), so removal alone
  reorders rather than shortens;
- *fault removal* -- drop one injected fault decision.  Subsumed by
  window removal in the limit, but faults are few and removing one is
  the probe that answers the question a counterexample exists to
  answer: is this fault load-bearing for the violation, or noise?
- *crash replacement* -- replace one ``("step", pid)`` decision with
  ``("crash", pid)``, discharging that process's remaining work in a
  single decision.  This is what actually shortens counterexamples
  whose violation does not need every process to finish (noise
  processes, already-violated oracles), and it is sound for the same
  reason as removal: the candidate only survives if the oracle returns
  the identical verdict on the re-executed run.  The target's
  *sampling-time* crash policy (``crashable``/``max_crashes``) does
  not bind here: crash-stop is a legal behavior of the asynchronous
  model for every process, so a shrunk trace may crash processes the
  samplers would not have -- the oracle re-validation, not the
  sampling policy, is what keeps the result a genuine counterexample;
- *fault weakening* -- replace a partition with a weaker one (half the
  sever window, or one fewer severed pid).  Weakening keeps the
  decision count, so acceptance is lexicographic: a candidate wins by
  being strictly shorter, or equal-length with strictly lower total
  :func:`repro.fuzz.trace.decision_weight` -- "the smallest schedule,
  then the gentlest faults that still reproduce".

Complexity: O(len^2) oracle executions in the worst case, bounded by
``max_checks``; hitting the budget returns the best trace found so far
(still validated -- the budget trades minimality, never soundness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.fuzz.executor import DEFAULT_MAX_STEPS, run_decisions_lenient
from repro.fuzz.targets import FuzzTarget
from repro.fuzz.trace import (
    CRASH,
    PARTITION,
    STEP,
    Decision,
    ScheduleTrace,
    decision_weight,
    partition_entry,
)


def _weight(decisions) -> int:
    return sum(decision_weight(decision) for decision in decisions)


def _better(effective, current) -> bool:
    """Strictly-decreasing shrink measure: (length, total fault weight)."""
    if len(effective) < len(current):
        return True
    return (
        len(effective) == len(current)
        and _weight(effective) < _weight(current)
    )


@dataclass
class ShrinkResult:
    """A shrunk trace plus the work it took."""

    trace: ScheduleTrace
    original_len: int
    checks: int
    minimal: bool  # False when max_checks tripped before 1-minimality

    @property
    def shrunk_len(self) -> int:
        return len(self.trace.decisions)


def shrink_trace(
    target: FuzzTarget,
    trace: ScheduleTrace,
    *,
    max_checks: int = 2000,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ShrinkResult:
    """Minimize a violating trace (see module docstring)."""
    if trace.verdict is None:
        raise ValueError("only violating traces can be shrunk")
    wanted = trace.verdict
    checks = 0
    budget_hit = False

    def probe(
        candidate: List[Decision],
    ) -> Optional[Tuple[Decision, ...]]:
        """Effective decisions if ``candidate`` reproduces, else None."""
        nonlocal checks
        checks += 1
        verdict, effective = run_decisions_lenient(
            target, candidate, max_steps=max_steps
        )
        if verdict == wanted:
            return effective
        return None

    current = list(trace.decisions)

    # Coarse-to-fine window removal, cascades repeated to a global
    # fixpoint: the shrink only stops when a *complete* cascade (every
    # window size down to 1, every position) removes nothing.  That is
    # what makes the result locally minimal under this removal family
    # and the shrink idempotent -- a second shrink runs one cascade,
    # finds nothing, and returns the byte-identical trace.
    #
    # Removing a decision can *lengthen* the effective sequence (e.g.
    # dropping a crash lets the victim run to completion), so progress
    # is "reproduces *and* strictly shorter", not just "reproduces".
    cascade_progressed = True
    while cascade_progressed and not budget_hit:
        cascade_progressed = False
        # Pass 1: window removal, coarse to fine.
        window = max(1, len(current) // 2)
        while True:
            start = len(current) - window
            while start >= 0:
                if checks >= max_checks:
                    budget_hit = True
                    break
                candidate = current[:start] + current[start + window:]
                effective = probe(candidate)
                if effective is not None and _better(effective, current):
                    current = list(effective)
                    cascade_progressed = True
                    start = min(start, len(current) - window)
                else:
                    start -= 1
            if budget_hit or window == 1:
                break
            window = max(1, window // 2)
        # Pass 2: fault removal, each injected fault individually.
        if budget_hit:
            break
        index = 0
        while index < len(current):
            if current[index][0] == STEP:
                index += 1
                continue
            if checks >= max_checks:
                budget_hit = True
                break
            candidate = current[:index] + current[index + 1:]
            effective = probe(candidate)
            if effective is not None and _better(effective, current):
                current = list(effective)
                cascade_progressed = True
                # Restart: the effective sequence may have reordered.
                index = 0
            else:
                index += 1
        # Pass 3: crash replacement, every position (a violation may
        # need a prefix of the victim's steps before the crash).
        if budget_hit:
            break
        index = 0
        while index < len(current):
            decision = current[index]
            if decision[0] != STEP:
                index += 1
                continue
            if checks >= max_checks:
                budget_hit = True
                break
            candidate = list(current)
            candidate[index] = (CRASH, decision[1])
            effective = probe(candidate)
            if effective is not None and _better(effective, current):
                current = list(effective)
                cascade_progressed = True
                # Restart: the shorter run exposes new crash points.
                index = 0
            else:
                index += 1
        # Pass 4: fault weakening -- shorter partitions, fewer severed
        # pids.  Equal-length candidates win on lower total weight.
        if budget_hit:
            break
        index = 0
        while index < len(current):
            decision = current[index]
            if decision[0] != PARTITION:
                index += 1
                continue
            pids = decision[1].split(",")
            steps = decision[2]
            replacements = []
            if steps > 1:
                replacements.append(partition_entry(pids, steps // 2))
            if len(pids) > 1:
                replacements.extend(
                    partition_entry(
                        [p for p in pids if p != victim], steps
                    )
                    for victim in pids
                )
            weakened = False
            for replacement in replacements:
                if checks >= max_checks:
                    budget_hit = True
                    break
                candidate = list(current)
                candidate[index] = replacement
                effective = probe(candidate)
                if effective is not None and _better(effective, current):
                    current = list(effective)
                    cascade_progressed = True
                    weakened = True
                    break
            if budget_hit:
                break
            index = 0 if weakened else index + 1
    return ShrinkResult(
        trace=trace.with_decisions(tuple(current), wanted),
        original_len=len(trace.decisions),
        checks=checks,
        minimal=not budget_hit,
    )
