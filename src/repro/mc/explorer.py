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
  is O(state size), not O(depth), and a node with a single candidate
  step is never captured at all, since nothing backtracks to it;
- **partial-order reduction** -- sleep sets prune sibling orderings of
  independent steps, visiting one representative per trace;
- **fan-out** -- where a fork is safe (:mod:`repro.mc.fanout`), the
  DFS explores the subtrees below :data:`FRONTIER_DEPTH` inline for
  :data:`FORK_AFTER_S`, then defers the remaining ``(prefix, sleep
  set)`` subtrees to one forked process per available CPU.
  :class:`_Plan` places the deferred subtrees in DFS order and merges
  their reports back into the report the serial DFS produces, field
  for field and violation for violation, budget overruns included
  (DESIGN.md section 5).

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
the serial DFS had accumulated when the budget tripped, so a too-large
scenario still yields usable evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import sys
import time

from repro._seeding import stable_hash
from repro.mc import fanout
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
        defer_after: float = 0.0,
    ) -> None:
        self.sim = sim
        self.context = context
        self.check = check
        self.max_executions = max_executions
        self.max_depth = max_depth
        self.reduce = reduce
        self.frontier_depth = frontier_depth
        self.defer_after = defer_after
        # The deferred frontier nodes and, in DFS order around them,
        # the leaves met after the first (see _Plan).
        self.items: List[Tuple] = []
        self.subtrees: List[Tuple[Tuple[str, ...], Tuple[StepInfo, ...]]] = []
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
                _too_deep(self.max_depth), report=self.report
            )
        sleeping = {entry.pid for entry in sleep}
        candidates = [pid for pid in runnable if pid not in sleeping]
        if not candidates:
            # Every enabled step sleeps: all completions of this prefix
            # are permutations of executions visited elsewhere.
            self.report.sleep_pruned += 1
            return
        if depth == self.frontier_depth and self._defer():
            self.items.append(
                ("subtree", _counts(self.report), len(self.subtrees))
            )
            self.subtrees.append((prefix, tuple(sorted(sleep))))
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

    def _defer(self) -> bool:
        """Whether to hand the frontier node here to a share instead
        of exploring its subtree inline."""
        return time.perf_counter() >= self.defer_after

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
        if self.subtrees:  # the merge needs the counters of each leaf
            self.items.append(("leaf", _counts(self.report)))
        if self.report.executions > self.max_executions:
            raise ExplorationBudgetExceeded(
                _too_many(self.max_executions), report=self.report
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


def _too_deep(max_depth: int) -> str:
    return (
        f"execution deeper than {max_depth} steps; "
        "not wait-free or scenario too large"
    )


def _too_many(max_executions: int) -> str:
    return f"more than {max_executions} executions; shrink the scenario"


Counts = Tuple[int, int, int, int, int, int]


def _counts(report: ExplorationReport) -> Counts:
    return (report.executions, report.distinct_states, report.restores,
            report.sleep_pruned, report.max_depth,
            len(report.violation_details))


#: The depth at which :func:`explore` splits the reduced tree into
#: independent subtrees.  Shallower leaves too few subtrees to share
#: out evenly; deeper makes each subtree's prefix replay cost more.
FRONTIER_DEPTH = 5

#: How long :func:`explore` explores frontier subtrees inline before it
#: defers the rest to forked shares.  A fork costs milliseconds, with
#: copy-on-write faults in both processes after it: a tree explored
#: sooner than this never pays for one.
FORK_AFTER_S = 0.02


@dataclass
class _Plan:
    """The serial DFS down to a frontier depth, with some frontier
    subtrees deferred.

    ``report`` is the walk's own report: everything but the deferred
    subtrees ``subtrees`` (each a prefix and sleep set).  ``items``
    places them in DFS order: ``("subtree", counts, index)`` for a
    deferred node, ``("leaf", counts)`` for each execution completed
    after the first deferred node, and at most one final
    ``("overrun", counts, message)`` where the walk's own budget
    tripped.  ``counts`` are the walk's counters at that point
    (``_counts``: the last is its number of violations).
    """

    factory: Factory
    check: Check
    max_executions: int
    max_depth: int
    reduce: bool
    items: List[Tuple]
    subtrees: List[Tuple[Tuple[str, ...], Tuple[StepInfo, ...]]]
    report: ExplorationReport

    @classmethod
    def build(
        cls,
        factory: Factory,
        check: Check,
        max_executions: int,
        max_depth: int,
        reduce: bool,
        frontier_depth: Optional[int],
        defer_after: float,
    ) -> "_Plan":
        """Walk the tree, deferring the frontier nodes met at or after
        the ``time.perf_counter()`` instant ``defer_after`` (none
        without a ``frontier_depth``)."""
        sim, context = factory()
        explorer = _Explorer(
            sim, context, check, max_executions, max_depth, reduce,
            frontier_depth=frontier_depth, defer_after=defer_after,
        )
        try:
            explorer.run()
        except ExplorationBudgetExceeded as exc:
            if not explorer.subtrees:  # the serial run's own overrun
                raise
            explorer.items.append(
                ("overrun", _counts(exc.report), str(exc))
            )
        finally:
            sim.release()
        return cls(factory, check, max_executions, max_depth, reduce,
                   explorer.items, explorer.subtrees, explorer.report)

    def subtree(
        self, index: int, budget: int,
        report: Optional[ExplorationReport] = None,
    ) -> ExplorationReport:
        """Explore deferred subtree ``index`` on a fresh ``factory()``
        system within ``budget`` executions.  ``report`` continues an
        existing report (the budget then counts from its totals); by
        default the subtree gets a report of its own."""
        sim, context = self.factory()
        explorer = _Explorer(
            sim, context, self.check, budget, self.max_depth, self.reduce
        )
        if report is not None:
            explorer.report = report
        try:
            return explorer.run(*self.subtrees[index])
        finally:
            sim.release()

    def share(
        self, indices: Sequence[int]
    ) -> List[Optional[ExplorationReport]]:
        """Explore the deferred subtrees ``indices`` in order, within
        the whole run's budget less what is known to precede each: the
        walk's executions before it and the share's own.  The subtree
        that overruns that is reported as ``None`` and ends the share:
        the serial run overruns at or before it, which :meth:`merge`
        then finds, so every later subtree is wasted work."""
        before = [counts[0] for kind, counts, *_ in self.items
                  if kind == "subtree"]
        results: List[Optional[ExplorationReport]] = []
        spent = 0
        for index in indices:
            budget = self.max_executions - before[index] - spent
            try:
                report = self.subtree(index, budget)
            except ExplorationBudgetExceeded:
                results.append(None)
                break
            spent += report.executions
            results.append(report)
        return results

    def merge(
        self, results: List[Optional[ExplorationReport]]
    ) -> ExplorationReport:
        """The serial explorer's report, from the deferred subtrees'.

        ``results[i]`` is subtree ``i``'s complete report, or ``None``
        where it overran the budget it was given (or was never run).
        Budgets apply in DFS order, as in the serial run: at the first
        point where the running total overruns, the merge raises that
        run's :class:`ExplorationBudgetExceeded`.  When that point lies
        inside a subtree, the merge re-explores it in-process on top of
        the serial report at its root, which raises the serial run's
        exact partial report.
        """
        top = self.report
        below = ExplorationReport()  # sums over the subtrees merged
        violations: List[Tuple[Tuple[str, ...], str]] = []
        taken = 0  # the walk's own violations merged so far

        def at(counts: Counts) -> ExplorationReport:
            nonlocal taken
            executions, states, restores, pruned, depth, found = counts
            violations.extend(top.violation_details[taken:found])
            taken = found
            return ExplorationReport(
                executions=executions + below.executions,
                max_depth=max(depth, below.max_depth),
                violation_details=list(violations),
                reduced=top.reduced,
                distinct_states=states + below.distinct_states,
                sleep_pruned=pruned + below.sleep_pruned,
                restores=restores + below.restores,
            )

        for kind, counts, *rest in self.items:
            running = counts[0] + below.executions
            if kind == "overrun":
                raise ExplorationBudgetExceeded(rest[0], report=at(counts))
            if kind == "leaf":
                if running > self.max_executions:
                    raise ExplorationBudgetExceeded(
                        _too_many(self.max_executions), report=at(counts)
                    )
                continue
            index = rest[0]
            result = results[index]
            if (result is None
                    or running + result.executions > self.max_executions):
                self.subtree(index, self.max_executions, at(counts))
                raise RuntimeError(
                    "a frontier subtree overran its budget once but not "
                    "when re-explored: the scenario is not deterministic"
                )
            at(counts)  # the walk's violations before this subtree
            below.executions += result.executions
            below.distinct_states += result.distinct_states
            below.restores += result.restores
            below.sleep_pruned += result.sleep_pruned
            below.max_depth = max(below.max_depth, result.max_depth)
            violations.extend(result.violation_details)
        return at(_counts(top))


def explore(
    factory: Factory,
    check: Check,
    max_executions: int = 200_000,
    max_depth: int = 200,
    *,
    reduce: bool = True,
) -> ExplorationReport:
    """Run ``check`` on (a trace-covering set of) maximal executions.

    ``factory`` must return a freshly built, deterministic system with
    no process mid-operation; it is called once, plus once per
    frontier subtree deferred to a share (see the module docstring),
    and the explorer backtracks each system in place.  ``check`` may
    extend the simulation (e.g. run a post-hoc audit) as long as it
    only mutates shared objects that existed when the scenario was
    built -- the explorer rolls those effects back before exploring
    the next execution.  Mutable state *outside* the repro object
    graph (e.g. a plain dict used as context) is not rolled back:
    treat the context as read-only wiring and keep per-execution
    scratch state local to ``check``.

    Deferred subtrees are shared out over one process per CPU where a
    fork is safe (:func:`repro.mc.fanout.fork_width`); a forked child's
    ``check`` calls and their side effects stay in the child, and only
    the report comes back.  The report is the serial DFS's, field for
    field and in the same violation order, whatever the number of
    processes -- budget overruns included.

    With ``reduce=False`` this enumerates every raw interleaving (the
    E13 baseline counts), without a per-node replay cost.
    """
    width = fanout.fork_width()
    plan = _Plan.build(
        factory, check, max_executions, max_depth, reduce,
        FRONTIER_DEPTH if width > 1 else None,
        time.perf_counter() + FORK_AFTER_S,
    )
    indices = range(len(plan.subtrees))
    return plan.merge(fanout.fan_out(plan.share, indices, width))


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
