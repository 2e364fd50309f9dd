"""Fuzz campaigns: batches of schedules through the execution engine.

Contract
--------

A campaign fans *batches* of fuzzed schedules out across the PR-1
engine (:func:`repro.engine.engine.run_tasks`).  One
:class:`~repro.engine.engine.ExecutionTask` is one batch: a target
name, a sampler name and a batch seed; per-run seeds derive from the
batch seed via :func:`repro.engine.seeds.derive_seed`, and
coverage-guided samplers share their seen-set within a batch.  Batch
payloads are therefore a pure function of the task parameters -- the
engine's determinism contract holds and campaign JSONL checkpoints are
byte-identical between serial and ``--workers N`` runs, resumable
mid-campaign.

The campaign driver layers two deterministic stopping rules on top:

- *stop on violation* -- tasks are executed in fixed-size chunks (a
  chunk size independent of the worker count); the campaign stops
  after the first chunk containing a violation, so the records on disk
  are always exactly the chunks completed -- identical for any worker
  count.
- *wall-clock budget* -- checked between chunks; exceeding it stops
  the campaign with a PARTIAL outcome (CLI exit code 2, the
  ``repro check`` convention).  Timing never leaks into the records
  themselves.

The first violating batch (lowest task index) carries the canonical
counterexample: its recorded trace, and -- when shrinking is on -- the
delta-debugged minimal trace that `repro fuzz --replay` re-executes.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.aggregate import (
    EXIT_CODES,
    aggregate_counts,
    fold_verdicts,
)
from repro.engine.engine import EngineReport, ExecutionTask, run_tasks
from repro.engine.seeds import derive_seed
from repro.fuzz.executor import DEFAULT_MAX_STEPS, run_one
from repro.fuzz.samplers import sampler_from_name
from repro.fuzz.shrinker import shrink_trace
from repro.fuzz.targets import get_target
from repro.fuzz.trace import trace_to_payload

#: Pending tasks per campaign chunk: the stop-on-violation and
#: wall-clock budgets are evaluated between chunks, so this is both
#: the early-stop granularity and a cap on in-flight parallelism
#: (workers beyond it idle).  Worker-count independent by design --
#: early-stopped campaigns write identical records under any
#: parallelism.
CHUNK_TASKS = 32


def run_batch(
    seed: int,
    target: str = "alg1-w1-r1",
    sampler: str = "uniform",
    schedules: int = 16,
    max_steps: int = DEFAULT_MAX_STEPS,
    shrink: bool = True,
    shrink_checks: int = 2000,
    sampler_params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One engine task: ``schedules`` fuzzed runs of one target.

    Returns a JSON-safe payload; the first violating run's trace (and
    its shrunk form) rides along so campaign consumers never have to
    re-discover the counterexample.
    """
    fuzz_target = get_target(target)
    sampler_obj = sampler_from_name(sampler, **(sampler_params or {}))
    total_steps = 0
    incomplete = 0
    violations = 0
    verdicts: List[str] = []
    first: Optional[Dict[str, Any]] = None
    coverage_states: Optional[int] = None
    for k in range(schedules):
        run_seed = derive_seed(seed, "fuzz-run", k)
        result = run_one(
            fuzz_target, run_seed, sampler_obj, max_steps=max_steps
        )
        total_steps += result.steps
        if not result.complete:
            incomplete += 1
        if result.coverage_states is not None:
            coverage_states = result.coverage_states
        if not result.violating:
            continue
        violations += 1
        if result.verdict not in verdicts:
            verdicts.append(result.verdict)
        if first is None:
            entry: Dict[str, Any] = {
                "run": k,
                "seed": run_seed,
                "verdict": result.verdict,
                "trace": trace_to_payload(result.trace),
                "trace_len": len(result.trace),
                "shrunk": None,
                "shrunk_len": None,
                "shrink_checks": 0,
                "shrink_minimal": None,
            }
            if shrink:
                shrunk = shrink_trace(
                    fuzz_target,
                    result.trace,
                    max_checks=shrink_checks,
                    max_steps=max_steps,
                )
                entry["shrunk"] = trace_to_payload(shrunk.trace)
                entry["shrunk_len"] = shrunk.shrunk_len
                entry["shrink_checks"] = shrunk.checks
                entry["shrink_minimal"] = shrunk.minimal
            first = entry
    return {
        "target": target,
        "sampler": sampler,
        "schedules": schedules,
        "steps": total_steps,
        "incomplete": incomplete,
        "violations": violations,
        "verdicts": sorted(verdicts),
        "first_violation": first,
        "coverage_states": coverage_states,
    }


@dataclass
class CampaignReport:
    """Outcome of one fuzz campaign (possibly early-stopped/partial)."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    tasks_total: int = 0
    schedules: int = 0
    steps: int = 0
    incomplete: int = 0
    violations: int = 0
    verdicts: List[str] = field(default_factory=list)
    first_violation: Optional[Dict[str, Any]] = None
    partial: bool = False
    elapsed: float = 0.0
    workers: int = 1
    executed: int = 0
    skipped: int = 0
    checkpoint: Optional[str] = None
    batches: int = 0  # planned batches per target

    def target_rows(self) -> List[Dict[str, Any]]:
        """Per-target totals and verdicts, in first-record order.

        A target with a violating schedule is FAIL.  Otherwise it is
        PARTIAL when a run hit the step budget before it could be
        judged, or when the campaign stopped (time budget, or another
        target's violation) before all its batches ran; else PASS.
        Targets the campaign never reached have no row.
        """
        rows = []
        for group in aggregate_counts(
            self.records, key=lambda record: record["payload"]["target"],
            fields=("schedules", "steps", "violations", "incomplete"),
        ):
            unjudged = (
                group["incomplete"] or group["executions"] < self.batches
            )
            rows.append({
                "target": group["group"],
                "sampler": self.records[0]["payload"]["sampler"],
                "schedules": group["schedules"],
                "steps": group["steps"],
                "violations": group["violations"],
                "verdict": "FAIL" if group["violations"]
                else ("PARTIAL" if unjudged else "PASS"),
            })
        return rows

    @property
    def verdict(self) -> str:
        """The campaign verdict: the per-target verdicts folded, and
        PARTIAL when the time budget expired (``partial``)."""
        verdicts = [row["verdict"] for row in self.target_rows()]
        if self.partial:
            verdicts.append("PARTIAL")
        return fold_verdicts(verdicts)

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 violation, 2 PARTIAL."""
        return EXIT_CODES[self.verdict]


def run_campaign(
    targets: Sequence[str],
    *,
    schedules: int = 256,
    batch: int = 32,
    sampler: str = "uniform",
    sampler_params: Optional[Dict[str, Any]] = None,
    root_seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    shrink: bool = True,
    shrink_checks: int = 2000,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = True,
    time_budget: Optional[float] = None,
    stop_on_violation: bool = True,
    progress=None,
) -> CampaignReport:
    """Fuzz every target for ``schedules`` schedules (in batches).

    See the module docstring for the determinism and stopping rules.
    """
    if schedules <= 0 or batch <= 0:
        raise ValueError("schedules and batch must be positive")
    batches = -(-schedules // batch)  # ceil
    remainder = schedules - (batches - 1) * batch  # last batch's size
    tasks: List[ExecutionTask] = []
    for name in targets:
        point = {
            "target": name,
            "sampler": sampler,
            "max_steps": max_steps,
            "shrink": shrink,
            "shrink_checks": shrink_checks,
            "sampler_params": dict(sampler_params or {}),
        }
        # Per-batch seeds derive from the point identity *without* the
        # batch-size field, so trimming the last batch (or changing
        # --batch) never perturbs another batch's seed -- the
        # make_tasks convention, inlined because the final batch runs
        # only the remaining schedules instead of overshooting the
        # --schedules budget.
        identity = json.dumps(point, sort_keys=True)
        for k in range(batches):
            params = dict(point)
            params["schedules"] = remainder if k == batches - 1 else batch
            tasks.append(ExecutionTask(
                len(tasks),
                int(derive_seed(root_seed, identity, k)),
                tuple(params.items()),
            ))

    own_checkpoint = checkpoint is None
    if own_checkpoint:
        # Chunked execution resumes through the checkpoint file; when
        # the caller did not ask for one, a private temp file provides
        # the same cumulative semantics and is removed afterwards.
        fd, checkpoint = tempfile.mkstemp(suffix=".fuzz.jsonl")
        os.close(fd)
        os.unlink(checkpoint)

    start = time.perf_counter()
    report = CampaignReport(
        tasks_total=len(tasks), batches=batches, workers=max(1, workers),
        checkpoint=None if own_checkpoint else checkpoint,
    )
    try:
        executed = 0
        # Probe (limit=0): load and canonicalize any resumed records
        # without executing, so the stop conditions below fire on the
        # checkpoint's existing evidence before any new work runs --
        # resuming an already-violating (or finished) campaign is a
        # no-op on the records.
        last: EngineReport = run_tasks(
            run_batch,
            tasks,
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
            progress=progress,
            limit=0,
        )
        while True:
            if stop_on_violation and any(
                record["payload"]["violations"]
                for record in last.records
            ):
                break
            if len(last.records) >= len(tasks):
                break
            elapsed = time.perf_counter() - start
            if time_budget is not None and elapsed >= time_budget:
                report.partial = True
                break
            # Every call sees the FULL task list (so resumed records
            # past the current chunk are validated and preserved,
            # never dropped) but executes at most CHUNK_TASKS pending
            # tasks.
            last = run_tasks(
                run_batch,
                tasks,
                workers=workers,
                checkpoint=checkpoint,
                resume=True,
                progress=progress,
                limit=CHUNK_TASKS,
            )
            executed += last.executed
        report.records = last.records
        report.executed = executed
        report.skipped = len(last.records) - executed
    finally:
        report.elapsed = time.perf_counter() - start
        if own_checkpoint and os.path.exists(checkpoint):
            os.unlink(checkpoint)

    for record in report.records:
        payload = record["payload"]
        report.schedules += payload["schedules"]
        report.steps += payload["steps"]
        report.incomplete += payload["incomplete"]
        report.violations += payload["violations"]
        for verdict in payload["verdicts"]:
            if verdict not in report.verdicts:
                report.verdicts.append(verdict)
        if report.first_violation is None and payload["first_violation"]:
            entry = dict(payload["first_violation"])
            entry["target"] = payload["target"]
            entry["task_index"] = record["index"]
            report.first_violation = entry
    report.verdicts.sort()
    return report
