"""Parallel frontiers over the engine pool: by name, checkpointed.

:func:`repro.mc.explore` already splits the reduced schedule tree at a
frontier depth and shares the ``(prefix, sleep set)`` subtrees out over
forked children.  This module adds only what the engine brings on top
of that: each subtree becomes one :class:`repro.engine.ExecutionTask`
whose worker rebuilds the scenario *by name* from
:mod:`repro.mc.scenarios` (so any start method works), and the engine's
JSONL checkpoint makes an interrupted check resumable.  The frontier
plan, the subtree runner and the merge are ``explore``'s
(:mod:`repro.mc.explorer`), so the report equals the serial run's
field for field.

Determinism contract (inherited from :mod:`repro.engine.engine`): one
canonical JSON record per subtree, written in task-index order --
byte-identical across runs and worker counts, resumable from the JSONL
checkpoint by skipping exactly the completed subtrees.

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
    _Plan,
    explore_subtree,
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
    entries = tuple(StepInfo.from_wire(wire) for wire in sleep)
    budget = None
    try:
        report = explore_subtree(
            factory, check, tuple(prefix), entries,
            max_executions, max_depth, reduce,
        )
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


def _from_payload(payload: Dict[str, Any]) -> Optional[ExplorationReport]:
    """A subtree record's report; ``None`` where it overran its budget."""
    if payload["budget_exceeded"] is not None:
        return None
    return ExplorationReport(
        executions=payload["executions"],
        max_depth=payload["max_depth"],
        violation_details=[
            (tuple(schedule), verdict)
            for schedule, verdict in payload["violations"]
        ],
        distinct_states=payload["distinct_states"],
        sleep_pruned=payload["sleep_pruned"],
        restores=payload["restores"],
    )


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
    JSONL checkpoint/resume contract).  Each subtree runs with the
    whole budget; the merge is :func:`repro.mc.explore`'s, so the
    report -- or the partial report of
    :class:`ExplorationBudgetExceeded` -- is the serial run's.
    """
    from repro.mc.scenarios import get_scenario

    factory, check = get_scenario(scenario)()
    plan = _Plan.build(factory, check, max_executions, max_depth, reduce,
                       frontier_depth)
    width = workers or os.cpu_count() or 1

    tasks: List[ExecutionTask] = []
    for index, (prefix, entries) in enumerate(plan.subtrees):
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
        workers=width,
        checkpoint=checkpoint,
        resume=resume,
        progress=progress,
    )
    results: List[Optional[ExplorationReport]] = [None] * len(tasks)
    for record in engine_report.records:
        results[record["index"]] = _from_payload(record["payload"])

    try:
        merged = plan.merge(results)
    except ExplorationBudgetExceeded as exc:
        exc.report.workers = width
        raise
    merged.workers = width
    return merged
