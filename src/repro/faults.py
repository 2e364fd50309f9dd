"""Fault plans: message-level fault injection on the schedule seam.

The paper's audit guarantees are claimed for an asynchronous system
where the *adversary* controls scheduling and failures; the happy path
is the least interesting execution.  This module defines that
adversary once, for every runtime:

- the **decision classes** live in :mod:`repro.sim.scheduler`
  (:class:`~repro.sim.scheduler.CrashDecision`,
  :class:`~repro.sim.scheduler.DelayDecision`,
  :class:`~repro.sim.scheduler.PartitionDecision`,
  :class:`~repro.sim.scheduler.RecoverDecision`,
  :class:`~repro.sim.scheduler.DuplicateDecision`,
  :class:`~repro.sim.scheduler.OmitDecision`, registered by family in
  :data:`~repro.sim.scheduler.FAULT_DECISIONS`) because faults *are*
  schedule decisions: anything a ``Schedule.choose`` may return, a
  ``FaultPlan.decide`` may return, and vice versa;
- the **fault plans** below decide, per primitive arrival, whether to
  inject one of them, and the :class:`ArrivalInterpreter` says what
  an arrival's decision means on the thread and process runtimes;
- the fuzzer (:mod:`repro.fuzz`) explores the same vocabulary as
  recorded trace decisions, so a chaos-run failure and a fuzzer
  counterexample are the same kind of artifact.

Soundness, per family (DESIGN.md section 11 carries the full
argument): crashes and omissions leave an operation pending — the
conservative "may or may not have happened" the checkers already
treat correctly; delays and partitions only postpone applications,
which is ordinary asynchrony; duplicates are *recorded* at their true
application point, so the per-object log still equals the real
application order and the audit oracle judges what the memory really
did; recoveries reuse a pid but never an op id, so the lin checker
sees an ordinary process with one extra pending operation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro._seeding import stable_hash, stable_hash_from, stable_prefix
from repro.sim.scheduler import (
    CrashDecision,
    DelayDecision,
    DuplicateDecision,
    OmitDecision,
    PartitionDecision,
    RecoverDecision,
)

#: The fault families a chaos plan can arm, in band order.
FAULT_FAMILIES = ("crash", "delay", "partition", "dup", "omit", "recover")

#: Crash-eligibility cohort size when no roster is known: a pid is
#: crash-eligible with odds ``max_crashes / _CRASH_COHORT``, keeping the
#: expected number of distinct crashed pids proportional to the budget
#: while ``decide`` stays a pure function of ``(seed, step, pid)``.
_CRASH_COHORT = 4


class FaultPlan:
    """Decides, per primitive request, whether to inject a fault.

    ``decide`` sees the 1-based arrival index of the primitive request,
    the requesting pid, and the primitive about to be applied; it
    returns ``None`` (apply normally) or any decision class from
    :data:`~repro.sim.scheduler.FAULT_DECISIONS`.
    :class:`ArrivalInterpreter` gives the decisions their meaning at an
    arrival; each runtime carries them out with its own mechanism.

    Plans must be picklable: they ship to the memory-server process at
    spawn.
    """

    def decide(
        self, step: int, pid: str, obj_name: str, primitive: str
    ) -> Optional[Any]:
        return None


class ArrivalInterpreter:
    """A fault plan's arrival-point semantics, implemented once.

    Runtimes call :meth:`arrive` once per primitive request, in one
    total arrival order.  It numbers arrivals from 1, asks the plan,
    and returns ``None`` (apply normally) or the decision to carry out.
    A crash naming another pid dooms it: that pid's next arrival
    returns its crash without consulting the plan.  An omission naming
    another pid, and any decision outside ``families`` (no mechanism
    for it), become ``None``.  So a returned crash or omission names
    the requester; delay holds the requester's request; recover, dup
    and partition name their side-effect target.  ``plan.decide`` is
    looked up on every call, so a patched plan class sees every one.
    """

    __slots__ = ("plan", "families", "arrivals", "_doomed")

    def __init__(self, plan: FaultPlan, families: Iterable[str]) -> None:
        self.plan = plan
        self.families = frozenset(families)
        #: Arrivals so far; omitted and held requests count too, so a
        #: scripted decision never re-fires on the victim's next one.
        self.arrivals = 0
        self._doomed: set = set()

    def arrive(self, pid: str, obj_name: str, primitive: str) -> Optional[Any]:
        self.arrivals += 1
        if pid in self._doomed:
            self._doomed.discard(pid)
            return CrashDecision(pid)
        decision = self.plan.decide(self.arrivals, pid, obj_name, primitive)
        if decision is None or decision.family not in self.families:
            return None
        if decision.family == "crash" and decision.pid != pid:
            self._doomed.add(decision.pid)
            return None
        if decision.family == "omit" and decision.pid != pid:
            return None
        return decision


#: A match pattern: (pid, obj_name, primitive), any field None = wildcard.
MatchPattern = Tuple[Optional[str], Optional[str], Optional[str]]


class ScriptedFaultPlan(FaultPlan):
    """Deterministic faults keyed by arrival index or by match pattern.

    ``decisions`` maps a 1-based step index to a decision.  With a
    single worker the arrival order is the program order, so scripted
    plans give byte-reproducible crash/delay regressions.

    Index-keyed scripts are brittle under benign reorderings (two
    workers racing to the server can swap arrival indices without
    changing anything the oracles care about), so ``match`` rules key
    on the request's *meaning* instead: each rule is a
    ``((pid, obj_name, primitive), decision)`` pair, ``None`` fields
    matching anything, and fires on its first matching arrival only —
    "the first time r0 hits a fetch&xor on R, crash it" survives any
    reordering that keeps that event existing.  Index keys win over
    match rules when both apply; rules are tried in order.
    """

    def __init__(
        self,
        decisions: Optional[Dict[int, Any]] = None,
        *,
        match: Sequence[Tuple[MatchPattern, Any]] = (),
    ) -> None:
        self.decisions = dict(decisions or {})
        self.match = tuple(
            (tuple(pattern), decision) for pattern, decision in match
        )
        for pattern, _ in self.match:
            if len(pattern) != 3:
                raise ValueError(
                    f"match pattern must be (pid, obj_name, primitive); "
                    f"got {pattern!r}"
                )
        self._fired: set = set()

    def decide(
        self, step: int, pid: str, obj_name: str, primitive: str
    ) -> Optional[Any]:
        hit = self.decisions.get(step)
        if hit is not None:
            return hit
        coords = (pid, obj_name, primitive)
        for index, (pattern, decision) in enumerate(self.match):
            if index in self._fired:
                continue
            if all(
                want is None or want == got
                for want, got in zip(pattern, coords)
            ):
                self._fired.add(index)
                return decision
        return None


class SeededFaultPlan(FaultPlan):
    """Seeded random faults, derived statelessly per ``(seed, step, pid)``.

    The ``*_per_10k`` knobs are per-request probabilities in basis
    points (out of 10000), banded in :data:`FAULT_FAMILIES` order over
    a single hash draw.  ``decide`` is a **pure function** of the
    request coordinates — no counter, no consumed set — so a plan is a
    pure value: pickling it mid-campaign cannot change what it
    injects, and fork versus spawn start methods see identical
    decision sequences.

    The crash budget is stateless too.  With a ``pids`` roster the cap
    is exact: the ``max_crashes`` pids ranked lowest by a seeded hash
    are the only crash-eligible ones.  Without a roster an exact
    global cap is impossible without state, so eligibility degrades to
    a per-pid coin with odds ``max_crashes``/:data:`_CRASH_COHORT` —
    the expected number of distinct crashed pids stays proportional to
    the budget.

    ``RecoverDecision`` needs to name a pid *other* than the requester
    (the requester is evidently alive), so recovery is only armed when
    a roster is given: the recover band nominates a roster pid by
    hash; the server ignores nominations of processes that are not
    crashed-and-waiting.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        crash_per_10k: int = 0,
        delay_per_10k: int = 0,
        partition_per_10k: int = 0,
        dup_per_10k: int = 0,
        omit_per_10k: int = 0,
        recover_per_10k: int = 0,
        delay_steps: int = 4,
        partition_steps: int = 4,
        max_crashes: int = 1,
        pids: Optional[Iterable[str]] = None,
    ) -> None:
        self.seed = seed
        self.crash_per_10k = crash_per_10k
        self.delay_per_10k = delay_per_10k
        self.partition_per_10k = partition_per_10k
        self.dup_per_10k = dup_per_10k
        self.omit_per_10k = omit_per_10k
        self.recover_per_10k = recover_per_10k
        self.delay_steps = delay_steps
        self.partition_steps = partition_steps
        self.max_crashes = max_crashes
        self.pids = tuple(sorted(pids)) if pids is not None else None
        # ``decide`` hashes ("fault-plan", seed, step, pid); the constant
        # head is rendered once here, as bytes so the plan still pickles.
        self._draw_prefix = stable_prefix("fault-plan", seed)
        if self.pids:
            ranked = sorted(
                self.pids,
                key=lambda p: (
                    stable_hash("fault-crash-rank", seed, p), p
                ),
            )
            self._crash_eligible = frozenset(ranked[:max_crashes])
        else:
            self._crash_eligible = None

    def _crash_ok(self, pid: str) -> bool:
        if self.max_crashes <= 0:
            return False
        if self._crash_eligible is not None:
            return pid in self._crash_eligible
        return (
            stable_hash("fault-crash-rank", self.seed, pid) % _CRASH_COHORT
            < self.max_crashes
        )

    def decide(
        self, step: int, pid: str, obj_name: str, primitive: str
    ) -> Optional[Any]:
        draw = stable_hash_from(self._draw_prefix, step, pid) % 10_000
        band = self.crash_per_10k
        if draw < band:
            return CrashDecision(pid) if self._crash_ok(pid) else None
        band += self.delay_per_10k
        if draw < band:
            return DelayDecision(pid, steps=self.delay_steps)
        band += self.partition_per_10k
        if draw < band:
            return PartitionDecision((pid,), steps=self.partition_steps)
        band += self.dup_per_10k
        if draw < band:
            return DuplicateDecision(pid)
        band += self.omit_per_10k
        if draw < band:
            return OmitDecision(pid)
        band += self.recover_per_10k
        if draw < band and self.pids:
            victim = self.pids[
                stable_hash("fault-recover", self.seed, step)
                % len(self.pids)
            ]
            return RecoverDecision(victim)
        return None


def parse_fault_families(
    spec: Union[str, Iterable[str]]
) -> Tuple[str, ...]:
    """Parse ``--faults crash,partition,dup`` into a family tuple."""
    if isinstance(spec, str):
        names = [name.strip() for name in spec.split(",") if name.strip()]
    else:
        names = list(spec)
    out = []
    for name in names:
        if name not in FAULT_FAMILIES:
            known = ", ".join(FAULT_FAMILIES)
            raise ValueError(
                f"unknown fault family {name!r}; known: {known}"
            )
        if name not in out:
            out.append(name)
    if not out:
        raise ValueError("at least one fault family is required")
    return tuple(out)


def chaos_plan(
    families: Union[str, Iterable[str]],
    rate_per_10k: int,
    seed: int = 0,
    *,
    pids: Optional[Iterable[str]] = None,
    max_crashes: int = 1,
    delay_steps: int = 4,
    partition_steps: int = 4,
) -> SeededFaultPlan:
    """A :class:`SeededFaultPlan` with ``rate_per_10k`` total fault odds
    split evenly across the requested families (remainder to the first).

    This is what ``repro stress --faults crash,partition,dup
    --fault-rate N`` builds, with ``pids`` set to the stress roster so
    the crash budget is exact and recovery can nominate victims.
    """
    chosen = parse_fault_families(families)
    if rate_per_10k < 0:
        raise ValueError("fault rate must be non-negative")
    share, remainder = divmod(rate_per_10k, len(chosen))
    rates = {f"{name}_per_10k": share for name in chosen}
    rates[f"{chosen[0]}_per_10k"] += remainder
    return SeededFaultPlan(
        seed,
        **rates,
        delay_steps=delay_steps,
        partition_steps=partition_steps,
        max_crashes=max_crashes,
        pids=pids,
    )
