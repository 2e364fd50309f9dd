"""Parallel frontiers: fan independent subtrees across the engine pool.

The reduced schedule tree decomposes cleanly: once the serial explorer
has expanded it to a fixed *frontier depth* (checking any executions
that complete earlier inline), the surviving frontier nodes --
``(prefix, sleep set)`` pairs -- root pairwise disjoint subtrees whose
exploration needs no shared state.  Each subtree becomes one
:class:`repro.engine.ExecutionTask`; a worker rebuilds the scenario
*by name* from :mod:`repro.mc.scenarios`, replays the prefix on its own
live simulation, reconstitutes the sleep set (each sleeping entry is
re-indexed against the worker's own vault through its process's
pending primitive, so step signatures transfer across processes) and
runs the same sleep-set DFS.

Determinism contract (inherited from :mod:`repro.engine.engine`): one
canonical JSON record per subtree, written in task-index order --
byte-identical across runs and worker counts, resumable from the JSONL
checkpoint by skipping exactly the completed subtrees.  The explorer
keeps no cross-subtree state, so the merged ``executions``,
``distinct_states`` and verdicts equal a serial run's exactly.

Typical use (experiment E13 at scale, ``python -m repro check``)::

    report = explore_parallel("alg1-w1-r1", workers=4,
                              checkpoint="mc.jsonl")
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.engine import ExecutionTask, run_tasks
from repro.mc.explorer import (
    ExplorationBudgetExceeded,
    ExplorationReport,
    _Explorer,
)
from repro.mc.independence import StepInfo


def _subtree_task(
    seed: int,
    scenario: str = "",
    prefix: Tuple[str, ...] = (),
    sleep: Tuple = (),
    max_executions: int = 200_000,
    max_depth: int = 200,
    reduce: bool = True,
) -> Dict[str, Any]:
    """Explore one frontier subtree (runs in a worker process)."""
    from repro.mc.scenarios import get_scenario

    factory, check = get_scenario(scenario)()
    sim, context = factory()
    explorer = _Explorer(
        sim, context, check, max_executions, max_depth, reduce
    )
    entries = frozenset(StepInfo.from_wire(wire) for wire in sleep)
    budget = None
    try:
        report = explorer.run(tuple(prefix), entries)
    except ExplorationBudgetExceeded as exc:
        report = exc.report
        budget = str(exc)
    return {
        "executions": report.executions,
        "max_depth": report.max_depth,
        "violations": [
            [list(schedule), verdict]
            for schedule, verdict in report.violation_details
        ],
        "distinct_states": report.distinct_states,
        "sleep_pruned": report.sleep_pruned,
        "restores": report.restores,
        "budget_exceeded": budget,
    }


def explore_parallel(
    scenario: str,
    *,
    workers: Optional[int] = None,
    frontier_depth: int = 6,
    max_executions: int = 200_000,
    max_depth: int = 200,
    reduce: bool = True,
    checkpoint: Optional[str] = None,
    resume: bool = True,
    progress=None,
) -> ExplorationReport:
    """Explore a *named* scenario with parallel frontier fan-out.

    Phase 1 (serial) expands the reduced tree to ``frontier_depth``,
    checking executions that already complete; phase 2 fans the
    frontier subtrees across ``workers`` processes through the engine
    (``workers=1`` degrades to the serial engine path, keeping the
    JSONL checkpoint/resume contract).  Budgets apply per subtree and
    are re-checked on the merged total, so a too-large scenario raises
    :class:`ExplorationBudgetExceeded` with the merged partial report
    attached.
    """
    from repro.mc.scenarios import get_scenario

    factory, check = get_scenario(scenario)()
    sim, context = factory()
    explorer = _Explorer(
        sim, context, check, max_executions, max_depth, reduce,
        frontier_depth=frontier_depth,
    )
    merged = explorer.run()  # inline leaves + frontier collection
    merged.workers = workers or os.cpu_count() or 1

    tasks: List[ExecutionTask] = []
    for index, (prefix, entries) in enumerate(explorer.frontier):
        params = (
            ("scenario", scenario),
            ("prefix", list(prefix)),
            ("sleep", [entry.to_wire() for entry in entries]),
            ("max_executions", max_executions),
            ("max_depth", max_depth),
            ("reduce", reduce),
        )
        tasks.append(ExecutionTask(index, 0, params))

    engine_report = run_tasks(
        _subtree_task,
        tasks,
        workers=merged.workers,
        checkpoint=checkpoint,
        resume=resume,
        progress=progress,
    )

    budget_message = None
    for record in engine_report.records:
        payload = record["payload"]
        merged.executions += payload["executions"]
        merged.max_depth = max(merged.max_depth, payload["max_depth"])
        merged.distinct_states += payload["distinct_states"]
        merged.sleep_pruned += payload["sleep_pruned"]
        merged.restores += payload["restores"]
        for schedule, verdict in payload["violations"]:
            merged.violation_details.append((tuple(schedule), verdict))
        if payload["budget_exceeded"] and budget_message is None:
            budget_message = payload["budget_exceeded"]

    if budget_message is None and merged.executions > max_executions:
        budget_message = (
            f"more than {max_executions} executions; shrink the scenario"
        )
    if budget_message is not None:
        raise ExplorationBudgetExceeded(budget_message, report=merged)
    return merged
