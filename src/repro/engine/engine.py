"""The parallel sweep engine: seeded tasks -> JSONL records.

The paper's guarantees are quantified over all executions; experiments
sample that space one seeded schedule at a time.  This engine fans a
list of :class:`ExecutionTask` out across a ``multiprocessing`` worker
pool (or runs them inline), streams one canonical JSON record per task
to a checkpoint file, and can resume an interrupted sweep by skipping
exactly the tasks whose records are already on disk.

Determinism contract
--------------------

- A task's seed is derived from the root seed and the task identity
  alone (:mod:`repro.engine.seeds`), never from worker scheduling.
- Records are written in task-index order regardless of completion
  order, and serialized canonically (sorted keys, fixed separators), so
  the same task list produces **byte-identical** JSONL under serial and
  parallel execution.
- Records carry no wall-clock fields; timing lives only in the
  in-memory :class:`EngineReport`.

Task functions run in worker processes, so they must be module-level
callables (picklable) that take ``fn(seed, **params)`` and return a
JSON-serializable payload.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.seeds import derive_seed

ProgressFn = Callable[[int, int, Dict[str, Any]], None]


@dataclass(frozen=True)
class ExecutionTask:
    """One unit of work: a seed plus keyword parameters for the task fn."""

    index: int
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def record(self, payload: Any) -> Dict[str, Any]:
        """The canonical result record for this task."""
        return {
            "index": self.index,
            "seed": self.seed,
            "params": self.kwargs,
            "payload": payload,
        }


def make_tasks(
    points: Iterable[Mapping[str, Any]],
    *,
    seeds: Optional[Sequence[int]] = None,
    seeds_per_point: int = 1,
    root_seed: Any = 0,
) -> List[ExecutionTask]:
    """Cross grid points with seeds into a flat, ordered task list.

    With ``seeds`` the given seed list is used verbatim for every point
    (one task per (point, seed) pair); otherwise ``seeds_per_point``
    seeds are derived per point from ``root_seed`` and the point itself,
    so adding a point never perturbs any other point's seeds; it must
    be at least 1 (a sweep of no executions verifies nothing).
    """
    if seeds is None and seeds_per_point < 1:
        raise ValueError(
            f"need at least one seed per point (got {seeds_per_point})"
        )
    tasks: List[ExecutionTask] = []
    for point in points:
        params = tuple(point.items())
        if seeds is not None:
            point_seeds: Sequence[int] = seeds
        else:
            # Canonical JSON identifies the point, so derived seeds do
            # not depend on axis declaration order or value reprs.
            identity = json.dumps(dict(params), sort_keys=True)
            point_seeds = [
                derive_seed(root_seed, identity, k)
                for k in range(seeds_per_point)
            ]
        for seed in point_seeds:
            tasks.append(ExecutionTask(len(tasks), int(seed), params))
    return tasks


def encode_record(record: Mapping[str, Any]) -> str:
    """Canonical JSONL line: sorted keys, fixed separators, no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class EngineReport:
    """Outcome of one engine run."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    workers: int = 1
    elapsed: float = 0.0
    checkpoint: Optional[str] = None

    @property
    def total(self) -> int:
        return len(self.records)

    def payloads(self) -> List[Any]:
        return [record["payload"] for record in self.records]

    def lines(self) -> List[str]:
        return [encode_record(record) for record in self.records]


# -- worker-side plumbing --------------------------------------------------

_WORKER_FN: Optional[Callable[..., Any]] = None


def _init_worker(fn: Callable[..., Any]) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _call_task(task: ExecutionTask) -> Any:
    assert _WORKER_FN is not None, "worker pool not initialized"
    return _WORKER_FN(task.seed, **task.kwargs)


# -- checkpoint handling ---------------------------------------------------

def _load_checkpoint(
    path: str, tasks: Sequence[ExecutionTask]
) -> Dict[int, Dict[str, Any]]:
    """Records already on disk that match the current task list.

    A record is reused only when its index, seed and params all match
    the task at that index; stale records (from a different sweep
    written to the same path) are dropped and re-run.
    """
    by_index = {task.index: task for task in tasks}
    done: Dict[int, Dict[str, Any]] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                task = by_index.get(record.get("index"))
                if (
                    task is not None
                    and record.get("seed") == task.seed
                    and record.get("params") == task.kwargs
                ):
                    done[task.index] = record
    except OSError:
        return {}
    return done


def _write_checkpoint(path: str, records: Sequence[Mapping[str, Any]]) -> None:
    """Atomically replace ``path`` with the given records, in order."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(encode_record(record) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- the engine ------------------------------------------------------------

def run_tasks(
    fn: Callable[..., Any],
    tasks: Sequence[ExecutionTask],
    *,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    chunksize: Optional[int] = None,
    limit: Optional[int] = None,
) -> EngineReport:
    """Run ``fn(seed, **params)`` for every task; return ordered records.

    ``workers > 1`` fans tasks out over a process pool (``fn`` must be a
    module-level callable).  With a ``checkpoint`` path, each completed
    record is streamed to the file in task-index order; rerunning with
    ``resume=True`` skips exactly the tasks whose records are already
    present and valid.  The final file is rewritten atomically in index
    order, so its bytes depend only on the task list, never on timing.

    ``limit`` caps how many *pending* tasks this call executes (in
    index order); resumed records never count against it and are never
    dropped, so callers can drive a long task list in deterministic
    slices (the fuzz campaign's stop-on-violation loop) while the
    checkpoint keeps every completed record.  With a limit the report's
    ``records`` cover only the tasks completed so far.

    An exception a task raises propagates, tagged with that task's
    index as its ``task_index`` attribute.
    """
    tasks = sorted(tasks, key=lambda t: t.index)
    if len({t.index for t in tasks}) != len(tasks):
        raise ValueError("task indices must be unique")

    start = time.perf_counter()
    done: Dict[int, Dict[str, Any]] = {}
    if checkpoint and resume and os.path.exists(checkpoint):
        done = _load_checkpoint(checkpoint, tasks)

    pending = [task for task in tasks if task.index not in done]
    if limit is not None:
        pending = pending[:limit]
    records: Dict[int, Dict[str, Any]] = dict(done)

    stream = None
    if checkpoint:
        # Re-base the file on the validated records, then append new
        # ones as they complete so an interrupted run can resume.
        _write_checkpoint(
            checkpoint, [records[i] for i in sorted(records)]
        )
        stream = open(checkpoint, "a", encoding="utf-8")

    def emit(record: Dict[str, Any]) -> None:
        records[record["index"]] = record
        if stream is not None:
            stream.write(encode_record(record) + "\n")
            stream.flush()
        if progress is not None:
            progress(len(records), len(tasks), record)

    task = None
    try:
        if workers > 1 and pending:
            import multiprocessing

            if chunksize is None:
                # Large chunks amortize IPC but delay result streaming:
                # a crash loses up to chunksize*workers un-checkpointed
                # tasks.  Cap the chunk so long sweeps checkpoint often.
                chunksize = max(1, min(32, len(pending) // (workers * 4)))
            with multiprocessing.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(fn,),
            ) as pool:
                payloads = pool.imap(_call_task, pending, chunksize)
                # imap yields in task order and re-raises a task's
                # exception at its position, so ``task`` names it.
                for task in pending:
                    emit(task.record(next(payloads)))
        else:
            for task in pending:
                emit(task.record(fn(task.seed, **task.kwargs)))
    except Exception as exc:
        if task is not None:
            exc.task_index = task.index
        raise
    finally:
        if stream is not None:
            stream.close()

    ordered = [
        records[task.index] for task in tasks if task.index in records
    ]
    if checkpoint:
        # Canonicalize: index order, one record per task, atomic.
        _write_checkpoint(checkpoint, ordered)
    return EngineReport(
        records=ordered,
        executed=len(pending),
        skipped=len(done),
        workers=max(1, workers),
        elapsed=time.perf_counter() - start,
        checkpoint=checkpoint,
    )
