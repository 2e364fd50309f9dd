"""The fault model: chaos plans and the simulator's fault vocabulary.

Fault *plans* at the memory-server seam are covered in
``test_process_runtime``; these tests pin the shared vocabulary one
layer down — the simulator's partition/duplicate/omit/recover
machinery that the fuzzer's recorder, lenient replayer and shrinker
all build on — plus the ``chaos_plan`` builder behind
``repro stress --faults``.

See DESIGN.md section 11 for the per-family soundness argument.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FAULT_FAMILIES,
    SeededFaultPlan,
    chaos_plan,
    parse_fault_families,
)
from repro.memory.main_register import MainRegister
from repro.memory.rword import RWord
from repro.sim.process import Op
from repro.sim.runner import Simulation
from repro.sim.scheduler import (
    CrashDecision,
    DuplicateDecision,
    OmitDecision,
    PartitionDecision,
    RecoverDecision,
)


def _sim_with_readers(*specs):
    """A simulation over one main register; specs are (pid, n_ops)."""
    sim = Simulation()
    main = MainRegister("m", RWord(0, "init", 0))

    def read_gen():
        word = yield from main.read()
        return word.val

    for pid, n_ops in specs:
        sim.add_program(pid, [Op("read", read_gen) for _ in range(n_ops)])
    return sim, main


# -- parsing and the chaos builder --------------------------------------------


def test_parse_fault_families_accepts_strings_and_iterables():
    assert parse_fault_families("crash, dup") == ("crash", "dup")
    assert parse_fault_families(["dup", "dup", "crash"]) == ("dup", "crash")
    assert parse_fault_families(FAULT_FAMILIES) == FAULT_FAMILIES


def test_parse_fault_families_rejects_unknown_and_empty():
    with pytest.raises(ValueError, match="unknown fault family"):
        parse_fault_families("crash,gremlins")
    with pytest.raises(ValueError, match="at least one"):
        parse_fault_families("")


def test_chaos_plan_splits_rate_with_remainder_to_first():
    plan = chaos_plan("partition,dup,omit", 100, seed=0)
    assert isinstance(plan, SeededFaultPlan)
    assert plan.partition_per_10k == 34
    assert plan.dup_per_10k == 33
    assert plan.omit_per_10k == 33
    assert plan.crash_per_10k == 0
    assert plan.delay_per_10k == 0
    with pytest.raises(ValueError, match="non-negative"):
        chaos_plan("dup", -1)


def test_chaos_plan_only_arms_requested_families():
    """At certain-fault odds, every decision drawn belongs to one of
    the requested families, and both families actually occur."""
    plan = chaos_plan(("dup", "omit"), 10_000, seed=5, pids=("p", "q"))
    kinds = {
        type(plan.decide(step, pid, "m", "read"))
        for step in range(1, 200)
        for pid in ("p", "q")
    }
    kinds.discard(type(None))
    assert kinds == {DuplicateDecision, OmitDecision}


def test_chaos_plan_passes_roster_through():
    plan = chaos_plan("crash,recover", 100, seed=1, pids=("w0", "r1", "r0"))
    assert plan.pids == ("r0", "r1", "w0")  # sorted, so hash ranks are stable


# -- simulator: partitions ----------------------------------------------------


def test_partition_hides_pids_until_healed():
    sim, _ = _sim_with_readers(("p", 3), ("q", 3))
    sim.partition(["p"], steps=2)
    assert sim.is_partitioned("p")
    assert [proc.pid for proc in sim.schedulable()] == ["q"]
    sim.step_process("q")
    sim.step_process("q")
    # The sever window has elapsed: p is visible again.
    assert not sim.is_partitioned("p")
    assert "p" in [proc.pid for proc in sim.schedulable()]
    sim.run()
    assert not sim.history.pending_operations()


def test_partition_of_everyone_flushes_instead_of_deadlocking():
    """A partition covering every process with work heals immediately
    (the quiescence rule): severing the whole network must not
    deadlock."""
    sim, _ = _sim_with_readers(("p", 2), ("q", 2))
    sim.partition(["p", "q"], steps=1000)
    assert not sim.is_partitioned("p")
    assert not sim.is_partitioned("q")
    sim.run()
    assert not sim.history.pending_operations()


def test_partition_of_unknown_pid_is_a_noop():
    sim, _ = _sim_with_readers(("p", 1))
    sim.partition(["ghost"], steps=10)
    assert not sim.is_partitioned("ghost")
    sim.run()
    assert len(sim.history.complete_operations()) == 1


def test_overlapping_partitions_extend_never_shorten():
    sim, _ = _sim_with_readers(("p", 3), ("q", 6))
    sim.partition(["p"], steps=4)
    sim.partition(["p"], steps=2)  # shorter re-partition must not heal early
    sim.step_process("q")
    sim.step_process("q")
    sim.step_process("q")
    assert sim.is_partitioned("p")


# -- simulator: duplicates, omissions, recovery -------------------------------


def test_duplicate_records_under_the_original_operation():
    sim, _ = _sim_with_readers(("p", 1))
    assert sim.duplicable_pids() == []
    sim.run_process("p")
    assert sim.duplicable_pids() == ["p"]
    before = len(sim.history.primitive_events(pid="p"))
    sim.duplicate("p")
    events = sim.history.primitive_events(pid="p")
    assert len(events) == before + 1
    assert len({event.op_id for event in events}) == 1


def test_duplicate_without_an_applied_primitive_is_rejected():
    sim, _ = _sim_with_readers(("p", 1))
    with pytest.raises(ValueError, match="no applied primitive"):
        sim.duplicate("p")


def test_omit_abandons_the_inflight_operation_only():
    sim, main = _sim_with_readers(("q", 1))

    def two_reads():
        first = yield from main.read()
        second = yield from main.read()
        return (first.val, second.val)

    sim.add_program("p", [Op("rr", two_reads), Op("rr", two_reads)])
    sim.step_process("p")  # first read applied; p is now mid-operation
    assert sim.processes["p"].is_mid_operation()
    sim.omit("p")
    sim.run()
    pending = sim.history.pending_operations()
    assert [(op.pid, op.op_id) for op in pending] == [("p", 0)]
    by_p = [op for op in sim.history.complete_operations() if op.pid == "p"]
    assert len(by_p) == 1  # the second rr completed untouched


def test_recover_resumes_with_fresh_op_ids():
    sim, _ = _sim_with_readers(("p", 3))
    sim.step_process("p")
    sim.crash("p")
    assert sim.recoverable_pids() == ["p"]
    sim.recover("p")
    assert sim.recoverable_pids() == []
    sim.run()
    pending = sim.history.pending_operations()
    assert [(op.pid, op.op_id) for op in pending] == [("p", 0)]
    by_p = [op for op in sim.history.complete_operations() if op.pid == "p"]
    assert sorted(op.op_id for op in by_p) == [1, 2]


def test_fully_finished_crashed_process_is_not_recoverable():
    sim, _ = _sim_with_readers(("p", 1), ("q", 1))
    sim.run_process("p")
    sim.crash("p")  # crashed after its whole program completed
    assert sim.recoverable_pids() == []


# -- simulator: the inject seam -----------------------------------------------


def test_inject_consumes_one_step_like_the_schedule_would():
    sim, _ = _sim_with_readers(("p", 2), ("q", 2))
    before = sim.steps_taken
    sim.inject(CrashDecision("p"))
    assert sim.steps_taken == before + 1
    assert sim.recoverable_pids() == ["p"]
    sim.inject(RecoverDecision("p"))
    sim.inject(PartitionDecision(("q",), steps=3))
    assert sim.steps_taken == before + 3
    assert sim.is_partitioned("q")
    sim.run()
    assert not sim.history.pending_operations()


def test_inject_duplicate_and_omit():
    sim, main = _sim_with_readers(("q", 2))

    def two_reads():
        first = yield from main.read()
        second = yield from main.read()
        return (first.val, second.val)

    sim.add_program("p", [Op("rr", two_reads), Op("rr", two_reads)])
    sim.step_process("p")  # begin the op; the first read is now pending
    sim.step_process("p")  # apply the first read
    assert "p" in sim.duplicable_pids()
    sim.inject(DuplicateDecision("p"))
    assert len(sim.history.primitive_events(pid="p")) == 2
    sim.inject(OmitDecision("p"))
    assert not sim.processes["p"].is_mid_operation()
    sim.run()
    pending = sim.history.pending_operations()
    assert [(op.pid, op.op_id) for op in pending] == [("p", 0)]


def test_an_omission_after_an_announce_breaks_audit_exactness():
    """An omitted primitive after a reader's announcing fetch&xor makes
    it abandon the read; its next read announces again in the same
    sequence number, which clears its bit of ``R`` as a duplicated
    announce does.  The audit then misses a pair a completed read
    returned, and the oracle reports it."""
    from repro.analysis.audit_checks import check_audit_exactness
    from repro.core.auditable_register import AuditableRegister

    reg = AuditableRegister(1, initial="v0")
    sim = Simulation()
    reader = reg.reader(sim.spawn("r0"), 0)
    sim.add_program("r0", [reader.read_op(), reader.read_op()])
    sim.add_program("w0", [reg.writer(sim.spawn("w0")).write_op("v1")])
    sim.add_program("a0", [reg.auditor(sim.spawn("a0")).audit_op()])
    sim.run_process("w0")
    while not [e for e in sim.history.primitive_events(pid="r0")
               if e.primitive == "fetch_xor"]:
        sim.step_process("r0")
    sim.inject(OmitDecision("r0"))
    sim.run_process("r0")
    sim.run_process("a0")
    reads = [op for op in sim.history.complete_operations()
             if op.pid == "r0"]
    assert [op.result for op in reads] == ["v1"]
    violations = check_audit_exactness(sim.history, reg)
    assert [v.missing for v in violations] == [{(0, "v1")}]


def test_omit_of_an_idle_process_is_rejected():
    sim, _ = _sim_with_readers(("p", 1))
    with pytest.raises(ValueError, match="no in-flight operation"):
        sim.omit("p")
