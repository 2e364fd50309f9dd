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
explorer layers two accelerations:

- **replay elimination** -- the DFS backtracks a single live simulation
  through :class:`repro.sim.checkpoint.SimulationCheckpointer` instead
  of rebuilding each prefix from ``factory()``: amortised cost per node
  is O(state size), not O(depth), and a node with a single candidate
  step is never captured at all, since nothing backtracks to it;
- **partial-order reduction** -- sleep sets prune sibling orderings of
  independent steps, visiting one representative per trace.

There is no state memo.  A sleep-set DFS never visits two
trace-equivalent prefixes (Godefroid's sleep-set theorem): if two
visited prefixes were equivalent and first diverged at a node through
``a`` (explored first) and ``b``, then ``a`` is independent of every
step before it on the second path, so it stays asleep along that path
and can never run there.  A memo keyed on configuration plus the
prefix's Foata form -- the only key that transfers history-dependent
verdicts -- therefore never hits; ``tests/test_mc.py`` pins that every
visited node has a distinct Foata form.

Complexity: O(visited nodes x state size); the number of visited
executions is bounded by the number of Mazurkiewicz traces, which for
the E13 scenarios is 5-30x below the raw interleaving count.

Typical use (experiment E13)::

    from repro.mc import explore

    report = explore(factory, check)                  # reduced (default)
    baseline = explore(factory, check, reduce=False)  # raw enumeration
    assert report.verdicts == baseline.verdicts

Budgets raise :class:`ExplorationBudgetExceeded`; the exception's
``report`` attribute carries the partial :class:`ExplorationReport`
accumulated so far, so a too-large scenario still yields usable
evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, List, Optional, Tuple

import sys

from repro._seeding import stable_hash
from repro.mc.independence import StepInfo, independent
from repro.sim.checkpoint import SimulationCheckpointer
from repro.sim.runner import Simulation

Factory = Callable[[], Tuple[Simulation, Any]]
Check = Callable[[Simulation, Any], Optional[str]]


def configuration_fingerprint(sim: Simulation, vault) -> Tuple[int, Tuple]:
    """``(stable_hash, exact components)`` of a live configuration.

    The key covers every adopted shared object that left its birth
    state plus, per process, the scheduler-visible control state
    (program counter, replay log, pending primitive).  The fuzz
    coverage sampler uses the hash as its novelty signal: two runs that
    reach one configuration count as one state.  The explorer itself
    keeps no state memo (see the module docstring).
    """
    components: List[Any] = [vault.fingerprint_components()]
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
    distinct_states: int = 0
    sleep_pruned: int = 0
    #: Always 0: sleep sets never revisit a trace, so the explorer keeps
    #: no memo to hit (the module docstring has the argument).
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
        frontier_depth: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.context = context
        self.check = check
        self.max_executions = max_executions
        self.max_depth = max_depth
        self.reduce = reduce
        self.frontier_depth = frontier_depth
        self.frontier: List[Tuple[Tuple[str, ...], Tuple[StepInfo, ...]]] = []
        self.ckpt = SimulationCheckpointer(sim, roots=[context])
        self.report = ExplorationReport(reduced=reduce)

    # -- public -----------------------------------------------------------

    def run(
        self,
        prefix: Tuple[str, ...] = (),
        sleep: FrozenSet[StepInfo] = frozenset(),
    ) -> ExplorationReport:
        for pid in prefix:  # drive a fresh simulation to a frontier node
            self._step(pid, None)
        sleep = frozenset(self._rebase(entry) for entry in sleep)
        # The DFS recurses once per schedule step; budgets guarantee a
        # clean ExplorationBudgetExceeded well before the interpreter's
        # default limit would turn deep scenarios into RecursionError.
        needed = 3 * self.max_depth + 2000
        previous = sys.getrecursionlimit()
        if needed > previous:
            sys.setrecursionlimit(min(needed, 200_000))
        try:
            self._node(prefix, sleep)
        finally:
            sys.setrecursionlimit(previous)
        return self.report

    def _rebase(self, entry: StepInfo) -> StepInfo:
        """A handed-off sleep entry, indexed against this vault.

        Lazily adopted objects get vault indices in first-step order,
        which differs between the explorer that collected a frontier
        and the one that resumes it.  A sleeping process has not moved
        since its entry was recorded, so its pending primitive still
        names the entry's target: adopt that (it is pristine -- no step
        of the prefix touched it, or it would be adopted already).
        """
        if entry.kind != "prim":
            return entry
        target = self.sim.processes[entry.pid].pending.obj
        return entry._replace(obj=self.ckpt.vault.adopt(target))

    # -- exploration ------------------------------------------------------

    def _node(
        self,
        prefix: Tuple[str, ...],
        sleep: FrozenSet[StepInfo],
    ) -> None:
        """Explore the subtree at the current live state."""
        depth = len(prefix)
        runnable = sorted(p.pid for p in self.sim.runnable())
        if not runnable:
            self._leaf(prefix)
            return
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
            return
        if (
            self.frontier_depth is not None
            and depth >= self.frontier_depth
        ):
            self.frontier.append((prefix, tuple(sorted(sleep))))
            return

        self.report.distinct_states += 1
        # A non-branching node is never backtracked to: skip its
        # checkpoint.
        mark = self.ckpt.capture() if len(candidates) > 1 else None
        done: List[StepInfo] = []
        for position, pid in enumerate(candidates):
            if position:
                self.ckpt.restore(mark)
                self.report.restores += 1
            info = self._step(pid, mark.vault_snap if mark else None)
            if self.reduce:
                child_sleep = frozenset(
                    entry
                    for entry in set(sleep) | set(done)
                    if independent(entry, info)
                )
            else:
                child_sleep = frozenset()
            self._node(prefix + (pid,), child_sleep)
            done.append(info)

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
        self.report.executions += 1
        if self.report.executions > self.max_executions:
            raise ExplorationBudgetExceeded(
                f"more than {self.max_executions} executions; "
                "shrink the scenario",
                report=self.report,
            )
        # The parent's restore rolls back what the check mutates (a
        # post-hoc audit) only in adopted objects; _step adopted every
        # object the execution applied a primitive to.
        try:
            verdict = self.check(self.sim, self.context)
        except Exception as exc:  # record, keep exploring
            verdict = f"{type(exc).__name__}: {exc}"
        if verdict:
            self.report.violation_details.append((prefix, verdict))


def explore(
    factory: Factory,
    check: Check,
    max_executions: int = 200_000,
    max_depth: int = 200,
    *,
    reduce: bool = True,
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

    With ``reduce=False`` this enumerates every raw interleaving (the
    E13 baseline counts), without a per-node replay cost.
    """
    sim, context = factory()
    explorer = _Explorer(
        sim, context, check, max_executions, max_depth, reduce
    )
    try:
        return explorer.run()
    finally:
        sim.release()


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
    )
    return report.executions
