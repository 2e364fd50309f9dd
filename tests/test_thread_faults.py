"""Fault injection on the thread runtime.

The thread runtime has no message seam (threads touch shared objects
under per-object locks), so only the families that make sense at the
primitive-arrival point are supported: ``crash`` (the arriving thread
stops, its operation stays pending forever) and ``delay`` (the arrival
sleeps, widening real interleavings).  The arrival sequence is
serialised under a dedicated lock so fault plans see the same
totally-ordered view the single-threaded memory server provides.

The safety claim mirrors the process runtime's: whatever the faults do,
the surviving history must still pass linearizability and audit
exactness -- crashes lose operations, never soundness.
"""

import pytest

from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_history,
    tag_reads,
)
from repro.faults import FAULT_FAMILIES, ScriptedFaultPlan, chaos_plan
from repro.rt import ThreadRuntime, run_stress
from repro.rt.stress import supported_fault_families
from repro.sim.history import CrashEvent
from repro.sim.scheduler import (
    CrashDecision,
    DelayDecision,
    OmitDecision,
)
from repro.workloads.generators import (
    RegisterWorkload,
    build_register_system,
)


def run_workload(plan, seed=0):
    """A small Algorithm 1 register workload on a fault-armed
    ThreadRuntime; returns (runtime, built system, history)."""
    workload = RegisterWorkload(
        num_readers=2, num_writers=2, num_auditors=1,
        reads_per_reader=4, writes_per_writer=3, audits_per_auditor=2,
        seed=seed,
    )
    runtime = ThreadRuntime(record_latency=False, faults=plan)
    built = build_register_system(workload, runtime=runtime)
    history = built.run()
    return runtime, built, history, workload


def surviving_history_is_safe(built, history, workload):
    spec = auditable_register_spec(workload.initial, built.reader_index)
    assert check_history(tag_reads(history.operations()), spec).ok
    assert not check_audit_exactness(history, built.register)


class TestFamilyVocabulary:
    def test_per_runtime_families(self):
        assert supported_fault_families("process") == FAULT_FAMILIES
        assert supported_fault_families("thread") == ("crash", "delay")
        assert ThreadRuntime.fault_families == ("crash", "delay")

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="unknown stress runtime"):
            supported_fault_families("fiber")

    def test_run_stress_rejects_message_families_on_thread(self):
        for family in ("partition", "dup", "omit", "recover"):
            with pytest.raises(ValueError, match="process runtime"):
                run_stress(
                    "register", threads=3, ops=4, runtime="thread",
                    faults=family, record_latency=False,
                )


class TestScriptedCrash:
    def test_crashing_the_requester_loses_only_its_ops(self):
        plan = ScriptedFaultPlan(
            match=[(("r0", None, None), CrashDecision("r0"))]
        )
        runtime, built, history, workload = run_workload(plan)
        assert runtime.crashed == ["r0"]
        pending = history.pending_operations()
        assert {op.pid for op in pending} == {"r0"}
        # The crash itself is a recorded event, replayable downstream.
        crashes = [e for e in history.events
                   if isinstance(e, CrashEvent)]
        assert [e.pid for e in crashes] == ["r0"]
        surviving_history_is_safe(built, history, workload)

    def test_crash_naming_another_pid_dooms_it(self):
        # Whoever arrives first dooms w0; w0 falls at its own next
        # arrival -- the process runtime's `doomed` semantics.
        plan = ScriptedFaultPlan(
            match=[((None, None, None), CrashDecision("w0"))]
        )
        runtime, built, history, workload = run_workload(plan)
        assert runtime.crashed == ["w0"]
        assert {op.pid for op in history.pending_operations()} <= {"w0"}
        surviving_history_is_safe(built, history, workload)

    def test_crashed_thread_stops_scheduling_work(self):
        plan = ScriptedFaultPlan(
            match=[(("w1", None, None), CrashDecision("w1"))]
        )
        runtime, built, history, workload = run_workload(plan)
        # operations() includes pending records; the crashed writer
        # must never have completed anything.
        mine = [op for op in history.operations() if op.pid == "w1"]
        assert all(op.response_index is None for op in mine)


class TestScriptedDelay:
    def test_delay_widens_but_never_loses_ops(self):
        plan = ScriptedFaultPlan({1: DelayDecision("r0", steps=3),
                                  4: DelayDecision("r0", steps=1)})
        runtime, built, history, workload = run_workload(plan)
        assert runtime.crashed == []
        assert not history.pending_operations()
        surviving_history_is_safe(built, history, workload)

    def test_message_level_decisions_are_ignored(self):
        # An explicit plan may emit message-seam decisions; the thread
        # runtime has no messages, so they are no-ops, not errors.
        plan = ScriptedFaultPlan(
            match=[((None, None, None), OmitDecision("r0"))]
        )
        runtime, built, history, workload = run_workload(plan)
        assert runtime.crashed == []
        assert not history.pending_operations()
        surviving_history_is_safe(built, history, workload)


class TestChaosOnThreads:
    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_crash_delay_runs_stay_safe(self, seed):
        report = run_stress(
            "register", threads=4, ops=6, seed=seed,
            runtime="thread", faults="crash,delay", fault_rate=2000,
            validate=True, record_latency=False,
        )
        assert report.lin_ok and report.audit_ok
        assert report.faults == "crash,delay@2000/10k"

    def test_chaos_actually_crashes_somebody(self):
        # Statistical but deterministic: at 20% fault rate over eight
        # seeded runs, at least one plan fires a crash.
        pids = []
        for seed in range(8):
            plan = chaos_plan(
                ("crash",), 2000, seed,
                pids=["r0", "r1", "w0", "a0"],
            )
            runtime = ThreadRuntime(record_latency=False, faults=plan)
            workload = RegisterWorkload(
                num_readers=2, num_writers=1, num_auditors=1,
                reads_per_reader=4, writes_per_writer=4,
                audits_per_auditor=2, seed=seed,
            )
            built = build_register_system(workload, runtime=runtime)
            built.run()
            pids.extend(runtime.crashed)
        assert pids
