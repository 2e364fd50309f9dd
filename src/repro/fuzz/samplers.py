"""Schedule samplers: how the fuzzer picks the next decision.

Contract
--------

A sampler is the randomized counterpart of a :class:`repro.sim.scheduler.Schedule`
policy, factored so the fuzz runner owns execution and recording while
the sampler owns *choice*.  Per run the runner calls

- :meth:`ScheduleSampler.begin_run` once with the run seed, the pid
  population and the step budget, then
- :meth:`ScheduleSampler.choose` once per decision point with the
  steppable pids (sorted), the crash-eligible pids (sorted; empty when
  fault injection is off or the crash budget is spent), the step
  index, -- for samplers that declare ``needs_fingerprints`` -- the
  current state fingerprint from
  :func:`repro.mc.configuration_fingerprint`, and -- when the target
  arms message faults -- a ``faultable`` menu mapping each
  currently-applicable fault kind (``recover``/``dup``/``omit``/
  ``partition``) to its eligible pids.

Determinism: every random draw comes from a ``random.Random`` seeded in
``begin_run`` via :func:`repro._seeding.stable_hash`, so a (sampler,
seed) pair produces the same decision sequence on every interpreter and
platform -- the recorded trace is merely a transcript of what the
sampler was always going to do.

Provided samplers:

- :class:`UniformSampler` -- a uniform random walk over decisions; the
  baseline with per-step probability mass spread evenly.
- :class:`PCTSampler` -- PCT-style priority scheduling: each run draws
  a random priority order over processes and ``depth - 1`` change
  points; at a change point the currently hottest runnable process is
  demoted below everyone.  For a bug that needs ``d`` ordering
  constraints among ``n`` processes and ``k`` steps, a run hits the bug
  with probability >= 1/(n * k^(d-1)) -- the classic PCT guarantee,
  which is what makes rare depth-d interleavings findable without
  enumerating the schedule tree.
- :class:`CoverageSampler` -- coverage-guided: remembers every
  ``(state fingerprint, decision)`` pair seen across the runs of a
  campaign batch and prefers decisions that are novel in the current
  state, spreading schedules across distinct configurations instead of
  re-walking the hot path.  Fingerprints hash the live configuration
  with :func:`repro.mc.configuration_fingerprint` (shared-object
  states, per-process control state, pending primitives), so "novel"
  means "a configuration no earlier run of the batch reached".
- :class:`FaultSampler` -- fault-pressure sweep: each run derives a
  :class:`repro.faults.SeededFaultPlan`-style fault rate from its own
  seed, so one campaign explores quiet runs and storms alike without a
  tuning knob.  Scheduling itself stays a uniform walk.

Determinism under the fault extension: the fault coin is drawn only
when a ``faultable`` menu is offered, and menus are only offered for
targets that arm fault families -- for every pre-fault target the RNG
consumption (hence the decision sequence per seed) is unchanged.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._seeding import stable_hash
from repro.fuzz.trace import (
    CRASH,
    PARTITION,
    STEP,
    Decision,
    partition_entry,
)

#: The faultable-menu type: fault kind -> eligible pids, this step.
FaultMenu = Dict[str, Tuple[str, ...]]


class ScheduleSampler:
    """Base class; see the module docstring for the protocol."""

    name = "base"
    #: Whether choose() must be given a state fingerprint.
    needs_fingerprints = False

    def __init__(
        self,
        crash_rate: float = 0.25,
        fault_rate: float = 0.25,
        partition_steps: int = 4,
    ) -> None:
        self.crash_rate = crash_rate
        self.fault_rate = fault_rate
        self.partition_steps = partition_steps
        self._rng = random.Random(0)

    def begin_run(
        self, seed: int, pids: Sequence[str], max_steps: int
    ) -> None:
        """Reset per-run state; all draws derive from ``seed``."""
        self._rng = random.Random(stable_hash(self.name, seed))

    def choose(
        self,
        steppable: Sequence[str],
        crashable: Sequence[str],
        step_index: int,
        fingerprint: Optional[int] = None,
        faultable: Optional[FaultMenu] = None,
    ) -> Decision:
        raise NotImplementedError

    def _maybe_crash(
        self, crashable: Sequence[str]
    ) -> Optional[Decision]:
        """Shared fault-injection coin flip (drawn only when armed)."""
        if crashable and self._rng.random() < self.crash_rate:
            return (CRASH, self._rng.choice(list(crashable)))
        return None

    def _fault_candidates(
        self, faultable: FaultMenu
    ) -> List[Decision]:
        """The trace decisions a faultable menu offers, in stable order.

        Partitions are offered per single pid plus (when the menu has
        several) the whole eligible set -- bounded where subsets would
        explode, while still able to sever a group at once.
        """
        candidates: List[Decision] = []
        for kind in sorted(faultable):
            pids = faultable[kind]
            if kind == PARTITION:
                candidates.extend(
                    partition_entry((pid,), self.partition_steps)
                    for pid in pids
                )
                if len(pids) > 1:
                    candidates.append(
                        partition_entry(pids, self.partition_steps)
                    )
            else:
                candidates.extend((kind, pid) for pid in pids)
        return candidates

    def _maybe_fault(
        self, faultable: Optional[FaultMenu]
    ) -> Optional[Decision]:
        """Shared message-fault coin flip (drawn only when a menu is
        offered, so pre-fault targets consume RNG exactly as before)."""
        if faultable and self._rng.random() < self.fault_rate:
            candidates = self._fault_candidates(faultable)
            if candidates:
                return self._rng.choice(candidates)
        return None


class UniformSampler(ScheduleSampler):
    """Uniform random walk over the runnable set."""

    name = "uniform"

    def choose(self, steppable, crashable, step_index,
               fingerprint=None, faultable=None):
        crash = self._maybe_crash(crashable)
        if crash is not None:
            return crash
        fault = self._maybe_fault(faultable)
        if fault is not None:
            return fault
        return (STEP, self._rng.choice(list(steppable)))


class PCTSampler(ScheduleSampler):
    """PCT-style priority scheduling with ``depth - 1`` change points.

    The PCT guarantee needs change points sampled over the run's
    *actual* length ``k``, which is unknown before the run; sampling
    over the step budget would park nearly every change point past the
    end of a short run.  ``horizon`` estimates ``k`` and adapts: each
    run's observed decision count seeds the next run's horizon (a
    deterministic function of the run sequence, so batch payloads stay
    reproducible).
    """

    name = "pct"

    def __init__(
        self,
        depth: int = 3,
        crash_rate: float = 0.25,
        horizon: int = 32,
    ) -> None:
        super().__init__(crash_rate)
        if depth < 1:
            raise ValueError("PCT depth must be >= 1")
        self.depth = depth
        self.horizon = horizon
        self._priority: Dict[str, float] = {}
        self._change_points: frozenset = frozenset()
        self._floor = 0.0
        self._steps_this_run = 0

    def begin_run(self, seed, pids, max_steps):
        super().begin_run(seed, pids, max_steps)
        if self._steps_this_run:
            self.horizon = max(8, self._steps_this_run)
        self._steps_this_run = 0
        order = list(pids)
        self._rng.shuffle(order)
        # Higher value = hotter; ties impossible by construction.
        self._priority = {pid: float(i) for i, pid in enumerate(order)}
        self._floor = -1.0
        population = range(1, max(2, min(self.horizon, max_steps)))
        k = min(self.depth - 1, len(population))
        self._change_points = frozenset(self._rng.sample(population, k))

    def _prio(self, pid: str) -> float:
        prio = self._priority.get(pid)
        if prio is None:
            # Late-appearing processes slot in below everyone seen so
            # far, deterministically.
            self._floor -= 1.0
            prio = self._priority[pid] = self._floor
        return prio

    def choose(self, steppable, crashable, step_index,
               fingerprint=None, faultable=None):
        self._steps_this_run += 1
        # Apply the change point before (and independently of) the
        # crash draw: a crash landing on a change-point step must not
        # consume the demotion, or the run silently executes below its
        # advertised PCT depth.
        if self._steps_this_run in self._change_points:
            hottest = max(steppable, key=self._prio)
            self._floor -= 1.0
            self._priority[hottest] = self._floor
        crash = self._maybe_crash(crashable)
        if crash is not None:
            return crash
        fault = self._maybe_fault(faultable)
        if fault is not None:
            return fault
        return (STEP, max(steppable, key=self._prio))


class CoverageSampler(ScheduleSampler):
    """Novelty-seeking walk over ``(state fingerprint, decision)`` pairs.

    The seen-set persists across ``begin_run`` calls, so within one
    campaign batch later runs are steered away from decisions already
    exercised in states already visited.  (Across batches the set is
    rebuilt per worker -- campaign records stay a pure function of the
    task list, the engine's determinism contract.)
    """

    name = "coverage"
    needs_fingerprints = True

    def __init__(self, crash_rate: float = 0.25) -> None:
        super().__init__(crash_rate)
        self.seen: set = set()
        self.states: set = set()

    def choose(self, steppable, crashable, step_index,
               fingerprint=None, faultable=None):
        self.states.add(fingerprint)
        candidates: List[Decision] = [(STEP, pid) for pid in steppable]
        if crashable and self._rng.random() < self.crash_rate:
            candidates += [(CRASH, pid) for pid in crashable]
        if faultable and self._rng.random() < self.fault_rate:
            candidates += self._fault_candidates(faultable)
        novel = [
            decision
            for decision in candidates
            if (fingerprint, decision) not in self.seen
        ]
        decision = self._rng.choice(novel if novel else candidates)
        self.seen.add((fingerprint, decision))
        return decision


class FaultSampler(UniformSampler):
    """Uniform scheduling under a per-run random fault rate.

    ``begin_run`` draws the run's fault pressure from its seed --
    :class:`repro.faults.SeededFaultPlan`-style basis points out of
    10000, up to ``max_rate_per_10k`` -- so a campaign over many seeds
    sweeps the rate space from near-quiet runs to fault storms.  Crash
    injection keeps the shared ``crash_rate`` coin; the drawn rate
    governs the message-fault families the target arms.
    """

    name = "fault"

    def __init__(
        self,
        crash_rate: float = 0.25,
        max_rate_per_10k: int = 5000,
        partition_steps: int = 4,
    ) -> None:
        super().__init__(
            crash_rate=crash_rate, partition_steps=partition_steps
        )
        if max_rate_per_10k < 1:
            raise ValueError("max_rate_per_10k must be >= 1")
        self.max_rate_per_10k = max_rate_per_10k

    def begin_run(self, seed, pids, max_steps):
        super().begin_run(seed, pids, max_steps)
        self.fault_rate = (
            self._rng.randint(1, self.max_rate_per_10k) / 10_000.0
        )


def _sampler_builders() -> Dict[str, Callable[..., ScheduleSampler]]:
    return {
        "uniform": UniformSampler,
        "pct": PCTSampler,
        "coverage": CoverageSampler,
        "fault": FaultSampler,
    }


def sampler_names() -> List[str]:
    """Names accepted by :func:`sampler_from_name` (and ``repro fuzz``)."""
    return sorted(_sampler_builders())


def sampler_from_name(name: str, **params: Any) -> ScheduleSampler:
    """Build a named sampler from JSON-safe parameters.

    Campaign workers reconstruct samplers from ``(name, params)`` pairs
    (the :func:`repro.analysis.fastlin.spec_from_name` trick: closures
    do not pickle, names do).
    """
    builders = _sampler_builders()
    try:
        builder = builders[name]
    except KeyError:
        known = ", ".join(sorted(builders))
        raise KeyError(
            f"unknown sampler {name!r}; registered: {known}"
        ) from None
    return builder(**params)
