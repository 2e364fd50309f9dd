"""Parallel execution engine for seed sweeps.

Experiments sample the execution space one seeded schedule at a time;
this package scales that sampling out.  It derives per-task seeds
deterministically from a root seed (:mod:`repro.engine.seeds`), fans
tasks across a ``multiprocessing`` pool while streaming canonical JSONL
records with resume-from-checkpoint (:mod:`repro.engine.engine`), and
folds the records back into experiment rows and claims
(:mod:`repro.engine.aggregate`).  Sweepable workloads live in
:mod:`repro.engine.tasks` as picklable module-level functions.

The determinism contract: the same task list yields byte-identical
JSONL no matter the worker count, and resuming an interrupted sweep
re-runs exactly the tasks whose records are missing.
"""

from repro.engine.aggregate import aggregate_counts, total
from repro.engine.engine import (
    EngineReport,
    ExecutionTask,
    encode_record,
    make_tasks,
    run_tasks,
)
from repro.engine.seeds import derive_seed, fan_out
from repro.engine.tasks import register_sweep_task, snapshot_sweep_task

__all__ = [
    "EngineReport",
    "ExecutionTask",
    "aggregate_counts",
    "derive_seed",
    "encode_record",
    "fan_out",
    "make_tasks",
    "register_sweep_task",
    "run_tasks",
    "snapshot_sweep_task",
    "total",
]
