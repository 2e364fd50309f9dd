"""Module-level task functions for engine sweeps.

Worker processes import tasks by reference, so every sweepable unit of
work lives here as a plain module-level function taking
``(seed, **params)`` and returning a JSON-serializable payload.  The
payloads carry per-execution verdicts (linearizability, audit
exactness, structural invariants) plus step costs, which
:mod:`repro.engine.aggregate` folds into experiment rows.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_fetch_xor_uniqueness,
    check_phase_structure,
    check_value_sequence,
    snapshot_spec,
    strip_version,
    tag_ops_with_pid,
    tag_reads,
)
from repro.analysis.fastlin import LIN_OK, check_history
from repro.workloads.generators import (
    RegisterWorkload,
    SnapshotWorkload,
    build_register_system,
    build_snapshot_system,
)


def register_sweep_task(
    seed: int,
    num_readers: int = 2,
    num_writers: int = 2,
    num_auditors: int = 1,
    reads_per_reader: int = 3,
    writes_per_writer: int = 2,
    audits_per_auditor: int = 1,
) -> Dict[str, Any]:
    """One seeded Algorithm 1 execution, fully checked (Theorem 8).

    Runs the register workload under a seeded random schedule and
    reports per-execution verdicts: linearizability of the history,
    audit exactness against the effectiveness oracle, and the
    structural invariants (phase structure, fetch&xor uniqueness,
    value sequence), plus the execution's step cost.
    """
    workload = RegisterWorkload(
        num_readers=num_readers,
        num_writers=num_writers,
        num_auditors=num_auditors,
        reads_per_reader=reads_per_reader,
        writes_per_writer=writes_per_writer,
        audits_per_auditor=audits_per_auditor,
        seed=seed,
    )
    built = build_register_system(workload)
    history = built.run()
    audit_fail = bool(check_audit_exactness(history, built.register))
    structural_fail = bool(
        check_phase_structure(history, built.register)
        + check_fetch_xor_uniqueness(history, built.register)
        + check_value_sequence(history, built.register)
    )
    spec = auditable_register_spec(workload.initial, built.reader_index)
    # A budget-starved (undecided) search counts as a failure here: a
    # sweep verdict must never report a history it could not verify as
    # linearizable (the pre-fastlin checker raised instead).
    lin_fail = (
        check_history(tag_reads(history.operations()), spec).status
        != LIN_OK
    )
    return {
        "lin_fail": lin_fail,
        "audit_fail": audit_fail,
        "structural_fail": structural_fail,
        "steps": built.sim.steps_taken,
        "ops": len(history.complete_operations()),
    }


def snapshot_sweep_task(
    seed: int,
    components: int = 2,
    num_scanners: int = 2,
    updates_per_component: int = 2,
    scans_per_scanner: int = 2,
    substrate: str = "afek",
) -> Dict[str, Any]:
    """One seeded Algorithm 3 execution, fully checked (Theorem 12).

    Audit exactness lifts from the inner max register; snapshot audits
    strip version numbers, so the check compares against the M-level
    oracle lifted by :func:`~repro.analysis.strip_version`.
    """
    workload = SnapshotWorkload(
        components=components,
        num_scanners=num_scanners,
        updates_per_component=updates_per_component,
        scans_per_scanner=scans_per_scanner,
        seed=seed,
    )
    built = build_snapshot_system(workload, snapshot_substrate=substrate)
    history = built.run()
    spec = snapshot_spec(
        workload.components, 0, built.updater_index, built.scanner_index
    )
    lin_fail = (
        check_history(tag_ops_with_pid(history.operations()), spec).status
        != LIN_OK
    )
    audit_fail = bool(check_audit_exactness(
        history, built.register.M, lift=strip_version
    ))
    return {
        "lin_fail": lin_fail,
        "audit_fail": audit_fail,
        "steps": built.sim.steps_taken,
        "ops": len(history.complete_operations()),
    }


def fuzz_task(seed: int, **params: Any) -> Dict[str, Any]:
    """One fuzz-campaign batch: sampled executions of a named target
    (:mod:`repro.fuzz.targets`), each judged by the target's oracle;
    the batch's first violating trace is shrunk and shipped in the
    payload.

    A pure delegation to :func:`repro.fuzz.campaign.run_batch` (the
    parameter set and defaults live there, once).  Targets and
    samplers travel by name (the scenario/spec registry trick), and
    per-run seeds derive from the batch ``seed``, so the payload is a
    pure function of the task -- the engine's canonical JSONL contract
    holds for fuzz campaigns too.
    """
    from repro.fuzz.campaign import run_batch

    return run_batch(seed, **params)
