"""The model-checking explorer: reduced exhaustive schedule exploration.

Contract
--------

``explore(factory, check)`` visits every maximal execution of the system
built by ``factory() -> (Simulation, context)`` -- up to the
Mazurkiewicz trace equivalence induced by
:mod:`repro.mc.independence` when reduction is on -- and runs
``check(sim, context)`` on each visited execution.  ``check`` returns
``None`` for a good execution or a violation description; exceptions are
recorded as violations.  Any property that is invariant under swapping
independent adjacent steps (all the repository's oracles; see the
independence module) holds for *every* interleaving iff it holds for the
visited representatives.

Compared to a naive exhaustive walk that replays every prefix, this
explorer layers three accelerations:

- **replay elimination** -- the DFS backtracks a single live simulation
  through :class:`repro.sim.checkpoint.SimulationCheckpointer` instead
  of rebuilding each prefix from ``factory()``: amortised cost per node
  is O(state size), not O(depth);
- **partial-order reduction** -- sleep sets prune sibling orderings of
  independent steps, visiting one representative per trace;
- **state fingerprinting** -- configurations are hashed (shared-object
  states, per-process program counters, pending-primitive set) via
  ``repro._seeding.stable_hash``; a subtree whose configuration was
  already explored under a weaker-or-equal sleep set is merged from the
  memo instead of re-explored.

Complexity: O(visited nodes x state size); the number of visited
executions is bounded by the number of Mazurkiewicz traces, which for
the E13 scenarios is 5-30x below the raw interleaving count.

Typical use (experiment E13)::

    from repro.mc import explore

    report = explore(factory, check)              # reduced (default)
    baseline = explore(factory, check, reduce=False,
                       fingerprints=False)        # raw enumeration
    assert report.verdicts == baseline.verdicts

Budgets raise :class:`ExplorationBudgetExceeded`; the exception's
``report`` attribute carries the partial :class:`ExplorationReport`
accumulated so far, so a too-large scenario still yields usable
evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

import sys

from repro._seeding import stable_hash
from repro.mc.independence import (
    Factors,
    StepInfo,
    foata_insert,
    independent,
)
from repro.sim.checkpoint import SimulationCheckpointer
from repro.sim.runner import Simulation

Factory = Callable[[], Tuple[Simulation, Any]]
Check = Callable[[Simulation, Any], Optional[str]]


def configuration_fingerprint(
    sim: Simulation, vault, extra: Tuple = ()
) -> Tuple[int, Tuple]:
    """``(stable_hash, exact components)`` of a live configuration.

    The key covers every adopted shared object that left its birth
    state plus, per process, the scheduler-visible control state
    (program counter, replay log, pending primitive).  ``extra``
    components are folded in verbatim (the explorer passes the Foata
    factorisation of the past; the fuzzer passes nothing and uses the
    key purely as a novelty signal for coverage-guided sampling).

    Exposed at module level so :mod:`repro.fuzz` reuses the exact
    fingerprint the model checker memoises on -- states the checker
    would merge are states the fuzzer should not count as new coverage.
    """
    components: List[Any] = [vault.fingerprint_components()]
    components.extend(extra)
    for pid in sorted(sim.processes):
        process = sim.processes[pid]
        pending = None
        if process.pending is not None:
            target = process.pending.obj
            obj_idx = vault.index_of(target)
            if obj_idx is None:
                obj_idx = vault.adopt(target)
            pending = (
                obj_idx,
                process.pending.primitive,
                vault.canon(process.pending.args),
            )
        components.append(
            (
                pid,
                process.state.value,
                process._next_op,
                len(process._program),
                process.steps_in_current_op,
                vault.canon(list(process._replay_log)),
                pending,
            )
        )
    exact = tuple(components)
    return stable_hash(exact), exact


class ExplorationBudgetExceeded(RuntimeError):
    """The schedule tree is larger than the configured budget.

    ``report`` holds the partial :class:`ExplorationReport` accumulated
    before the budget tripped (``None`` only for legacy raisers).
    """

    def __init__(self, message: str,
                 report: Optional["ExplorationReport"] = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass
class ExplorationReport:
    """Outcome of one exploration (possibly partial, see budgets)."""

    executions: int = 0
    max_depth: int = 0
    violation_details: List[Tuple[Tuple[str, ...], str]] = field(
        default_factory=list
    )
    reduced: bool = False
    fingerprints_enabled: bool = False
    distinct_states: int = 0
    sleep_pruned: int = 0
    fingerprint_hits: int = 0
    restores: int = 0
    workers: int = 1

    @property
    def violations(self) -> List[str]:
        """Human-readable violations, derived from the details."""
        return [
            f"schedule {'/'.join(schedule)}: {verdict}"
            for schedule, verdict in self.violation_details
        ]

    @property
    def ok(self) -> bool:
        return not self.violation_details

    @property
    def verdicts(self) -> FrozenSet[str]:
        """The set of distinct violation descriptions (schedule-free).

        Reduction visits one representative per trace, so reduced and
        unreduced runs agree on this set even though the schedules named
        in ``violations`` differ.
        """
        return frozenset(v for _, v in self.violation_details)


class _Explorer:
    def __init__(
        self,
        sim: Simulation,
        context: Any,
        check: Check,
        max_executions: int,
        max_depth: int,
        reduce: bool,
        fingerprints: bool,
        frontier_depth: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.context = context
        self.check = check
        self.max_executions = max_executions
        self.max_depth = max_depth
        self.reduce = reduce
        self.fingerprints = fingerprints
        self.frontier_depth = frontier_depth
        self.frontier: List[Tuple[Tuple[str, ...], Tuple[StepInfo, ...]]] = []
        self.ckpt = SimulationCheckpointer(sim, roots=[context])
        self.report = ExplorationReport(
            reduced=reduce, fingerprints_enabled=fingerprints
        )
        # fingerprint -> list of (sleep entries, exact components,
        # completions, relative violation suffixes, relative max depth)
        self._memo: Dict[int, List[Tuple]] = {}

    # -- public -----------------------------------------------------------

    def run(
        self,
        prefix: Tuple[str, ...] = (),
        sleep: FrozenSet[StepInfo] = frozenset(),
    ) -> ExplorationReport:
        factors: Factors = ()
        if prefix:
            factors = self._replay_prefix(prefix)
        # The DFS recurses once per schedule step; budgets guarantee a
        # clean ExplorationBudgetExceeded well before the interpreter's
        # default limit would turn deep scenarios into RecursionError.
        needed = 3 * self.max_depth + 2000
        previous = sys.getrecursionlimit()
        if needed > previous:
            sys.setrecursionlimit(min(needed, 200_000))
        try:
            self._node(prefix, sleep, factors)
        finally:
            sys.setrecursionlimit(previous)
        return self.report

    # -- exploration ------------------------------------------------------

    def _replay_prefix(self, prefix: Tuple[str, ...]) -> Factors:
        """Drive the fresh simulation to a frontier node (workers),
        rebuilding the prefix's Foata factorisation along the way."""
        factors: Factors = ()
        for pid in prefix:
            factors = foata_insert(factors, self._step(pid, None))
        return factors

    def _node(
        self,
        prefix: Tuple[str, ...],
        sleep: FrozenSet[StepInfo],
        factors: Factors,
    ) -> int:
        """Explore the subtree at the current live state; returns the
        maximal execution depth seen below (absolute)."""
        depth = len(prefix)
        runnable = sorted(p.pid for p in self.sim.runnable())
        if not runnable:
            self._leaf(prefix)
            return depth
        if depth >= self.max_depth:
            raise ExplorationBudgetExceeded(
                f"execution deeper than {self.max_depth} steps; "
                "not wait-free or scenario too large",
                report=self.report,
            )
        sleeping = {entry.pid for entry in sleep}
        candidates = [pid for pid in runnable if pid not in sleeping]
        if not candidates:
            # Every enabled step sleeps: all completions of this prefix
            # are permutations of executions visited elsewhere.
            self.report.sleep_pruned += 1
            return depth
        if (
            self.frontier_depth is not None
            and depth >= self.frontier_depth
        ):
            self.frontier.append((prefix, tuple(sorted(sleep))))
            return depth

        fp_key = exact = None
        if self.fingerprints:
            fp_key, exact = self._fingerprint(factors)
            cached = self._memo_lookup(fp_key, exact, sleep)
            if cached is not None:
                completions, suffixes, rel_depth = cached
                self.report.fingerprint_hits += 1
                self._count_executions(completions)
                for suffix, verdict in suffixes:
                    self._record_violation(prefix + suffix, verdict)
                self.report.max_depth = max(
                    self.report.max_depth, depth + rel_depth
                )
                return depth + rel_depth

        self.report.distinct_states += 1
        exec_start = self.report.executions
        viol_start = len(self.report.violation_details)
        frontier_start = len(self.frontier)
        if len(candidates) == 1 and fp_key is None:
            # Non-branching chain: nobody will ever backtrack to this
            # node, so skip the checkpoint entirely.
            pid = candidates[0]
            info = self._step(pid, None)
            if self.reduce:
                child_sleep = frozenset(
                    entry for entry in sleep if independent(entry, info)
                )
            else:
                child_sleep = frozenset()
            return self._node(prefix + (pid,), child_sleep, factors)
        mark = self.ckpt.capture()
        done: List[StepInfo] = []
        submax = depth
        for position, pid in enumerate(candidates):
            if position:
                self.ckpt.restore(mark)
                self.report.restores += 1
            info = self._step(pid, mark.vault_snap)
            if self.reduce:
                child_sleep = frozenset(
                    entry
                    for entry in set(sleep) | set(done)
                    if independent(entry, info)
                )
            else:
                child_sleep = frozenset()
            child_factors = (
                foata_insert(factors, info) if self.fingerprints else ()
            )
            submax = max(
                submax,
                self._node(prefix + (pid,), child_sleep, child_factors),
            )
            done.append(info)

        if fp_key is not None and len(self.frontier) == frontier_start:
            # A subtree cut off at the frontier is incomplete: caching
            # it would make a later hit silently drop the cut parts.
            self._memo_store(
                fp_key,
                exact,
                sleep,
                self.report.executions - exec_start,
                tuple(
                    (tuple(schedule[depth:]), verdict)
                    for schedule, verdict in
                    self.report.violation_details[viol_start:]
                ),
                submax - depth,
            )
        return submax

    def _step(self, pid: str, vault_snap: Optional[list]) -> StepInfo:
        """Execute one step and observe it.  ``vault_snap`` is the
        snapshot of the current configuration when the caller holds one
        (a captured branching node); ``None`` makes the checkpointer
        take its own when needed."""
        process = self.sim.processes[pid]
        vault = self.ckpt.vault
        if process.gen is None:
            kind, obj_idx = "inv", -1
            # The configuration the operation prologue is about to
            # observe: record it so restores can re-drive the generator
            # (see repro.sim.checkpoint).
            self.ckpt.set_baseline(
                pid, vault_snap if vault_snap is not None
                else vault.snapshot()
            )
        else:
            kind = "prim"
            self.ckpt.materialize_generator(pid, present=vault_snap)
            target = process.pending.obj
            obj_idx = vault.index_of(target)
            if obj_idx is None:
                obj_idx = vault.adopt(target)
        before = vault.volatile_signature()
        self.sim.step_process(pid)
        after = vault.volatile_signature()
        draws = tuple(
            idx for (idx, a), (_, b) in zip(before, after) if a != b
        )
        return StepInfo(pid, kind, obj_idx, process.gen is None, draws)

    def _leaf(self, prefix: Tuple[str, ...]) -> None:
        self.report.max_depth = max(self.report.max_depth, len(prefix))
        self._count_executions(1)
        # Track anything the final steps materialised before the check
        # mutates state, so the parent's restore can roll it back.
        self.ckpt.vault.adopt_new()
        try:
            verdict = self.check(self.sim, self.context)
        except Exception as exc:  # record, keep exploring
            verdict = f"{type(exc).__name__}: {exc}"
        if verdict:
            self._record_violation(prefix, verdict)

    # -- bookkeeping ------------------------------------------------------

    def _count_executions(self, n: int) -> None:
        self.report.executions += n
        if self.report.executions > self.max_executions:
            raise ExplorationBudgetExceeded(
                f"more than {self.max_executions} executions; "
                "shrink the scenario",
                report=self.report,
            )

    def _record_violation(
        self, schedule: Tuple[str, ...], verdict: str
    ) -> None:
        self.report.violation_details.append((schedule, verdict))

    # -- fingerprinting ---------------------------------------------------

    def _fingerprint(self, factors: Factors) -> Tuple[int, Tuple]:
        """Key identifying the configuration *and* its past's trace.

        The Foata factorisation is part of the key: equal state alone
        would let the memo replay verdicts across prefixes whose pasts
        are not equivalent, silently corrupting history-dependent
        checks (e.g. two dependent writes of the same value converge
        in state but their orders are distinct traces).  With the
        factorisation included, a hit proves the cached prefix and the
        current one are permutations of one another via independent
        swaps, so every completed execution below is pairwise
        equivalent -- cached verdicts and counts transfer exactly.
        """
        return configuration_fingerprint(
            self.sim, self.ckpt.vault, extra=(factors,)
        )

    def _memo_lookup(
        self, key: int, exact: Tuple, sleep: FrozenSet[StepInfo]
    ) -> Optional[Tuple]:
        for entry_sleep, entry_exact, completions, suffixes, rel_depth in (
            self._memo.get(key, ())
        ):
            # Exact component comparison guards against hash collisions;
            # the cached subtree may be reused only if it was explored
            # under a weaker-or-equal sleep set (it then covers a
            # superset of the traces required here).
            if entry_exact == exact and entry_sleep <= sleep:
                return completions, suffixes, rel_depth
        return None

    def _memo_store(
        self,
        key: int,
        exact: Tuple,
        sleep: FrozenSet[StepInfo],
        completions: int,
        suffixes: Tuple,
        rel_depth: int,
    ) -> None:
        self._memo.setdefault(key, []).append(
            (frozenset(sleep), exact, completions, suffixes, rel_depth)
        )


def explore(
    factory: Factory,
    check: Check,
    max_executions: int = 200_000,
    max_depth: int = 200,
    *,
    reduce: bool = True,
    fingerprints: bool = True,
) -> ExplorationReport:
    """Run ``check`` on (a trace-covering set of) maximal executions.

    ``factory`` is called once and must return a freshly built,
    deterministic system with no process mid-operation; the explorer
    backtracks it in place.  ``check`` may extend the simulation (e.g.
    run a post-hoc audit) as long as it only mutates shared objects
    that existed when the scenario was built -- the explorer rolls
    those effects back before exploring the next execution.  Mutable
    state *outside* the repro object graph (e.g. a plain dict used as
    context) is not rolled back: treat the context as read-only wiring
    and keep per-execution scratch state local to ``check``.

    With ``reduce=False`` and ``fingerprints=False`` this enumerates
    every raw interleaving (the E13 baseline counts), without a
    per-node replay cost.
    """
    sim, context = factory()
    explorer = _Explorer(
        sim, context, check, max_executions, max_depth, reduce,
        fingerprints,
    )
    return explorer.run()


def count_interleavings(
    factory: Factory,
    max_executions: int = 200_000,
    *,
    reduce: bool = False,
) -> int:
    """Count the maximal executions (reduced or raw) of a scenario."""
    report = explore(
        factory,
        lambda sim, ctx: None,
        max_executions=max_executions,
        reduce=reduce,
        fingerprints=reduce,
    )
    return report.executions
