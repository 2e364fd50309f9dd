"""Tests for Algorithm 2 (auditable max register)."""

import pytest

from repro import AuditableMaxRegister, Nonced, Simulation
from repro.analysis import (
    auditable_max_register_spec,
    check_audit_exactness,
    check_history,
    check_phase_structure,
    check_value_sequence,
)
from repro.crypto.nonce import ZeroNonceSource
from repro.workloads.generators import (
    RegisterWorkload,
    build_max_register_system,
)

from tests.conftest import run_sequentially


def make_system(initial=0, **kwargs):
    sim = Simulation()
    reg = AuditableMaxRegister(num_readers=2, initial=initial, **kwargs)
    writer = reg.writer(sim.spawn("w"))
    r0 = reg.reader(sim.spawn("r0"), 0)
    r1 = reg.reader(sim.spawn("r1"), 1)
    auditor = reg.auditor(sim.spawn("a"))
    return sim, reg, writer, r0, r1, auditor


class TestSequentialSemantics:
    def test_read_initial(self):
        sim, reg, w, r0, r1, a = make_system(initial=5)
        assert run_sequentially(sim, "r0", [r0.read_op()]) == 5

    def test_monotone_reads(self):
        sim, reg, w, r0, r1, a = make_system()
        expected = 0
        for v in (4, 2, 9, 9, 1, 12):
            run_sequentially(sim, "w", [w.write_max_op(v)])
            expected = max(expected, v)
            assert run_sequentially(sim, "r0", [r0.read_op()]) == expected

    def test_smaller_write_is_silent_on_r(self):
        sim, reg, w, r0, r1, a = make_system()
        run_sequentially(sim, "w", [w.write_max_op(10)])
        seq_before = reg.R.peek().seq
        run_sequentially(sim, "w", [w.write_max_op(3)])
        assert reg.R.peek().seq == seq_before  # no new install
        assert reg.R.peek().val.value == 10

    def test_audit_strips_nonces(self):
        sim, reg, w, r0, r1, a = make_system()
        run_sequentially(sim, "w", [w.write_max_op(7)])
        run_sequentially(sim, "r0", [r0.read_op()])
        report = run_sequentially(sim, "a", [a.audit_op()])
        assert report == frozenset({(0, 7)})
        assert all(not isinstance(v, Nonced) for _, v in report)

    def test_read_returns_plain_value(self):
        sim, reg, w, r0, r1, a = make_system()
        run_sequentially(sim, "w", [w.write_max_op(3)])
        value = run_sequentially(sim, "r0", [r0.read_op()])
        assert value == 3 and not isinstance(value, Nonced)

    def test_audit_covers_archived_maxima(self):
        sim, reg, w, r0, r1, a = make_system()
        run_sequentially(sim, "w", [w.write_max_op(3)])
        run_sequentially(sim, "r0", [r0.read_op()])
        run_sequentially(sim, "w", [w.write_max_op(8)])
        run_sequentially(sim, "r1", [r1.read_op()])
        report = run_sequentially(sim, "a", [a.audit_op()])
        assert report == frozenset({(0, 3), (1, 8)})

    def test_rewrite_same_value_with_random_nonce_may_install(self):
        # With random nonces a re-write of the current maximum installs
        # a fresh pair whenever its nonce is larger -- the mechanism
        # hiding gap information (Section 4).
        from repro.crypto.nonce import NonceSource

        installs = 0
        for seed in range(20):
            sim, reg, w, r0, r1, a = make_system(
                nonces=NonceSource(seed=seed)
            )
            run_sequentially(sim, "w", [w.write_max_op(5)])
            before = reg.R.peek().seq
            run_sequentially(sim, "w", [w.write_max_op(5)])
            installs += reg.R.peek().seq > before
        assert 0 < installs < 20  # both behaviours occur

    def test_zero_nonce_rewrite_always_silent(self):
        sim, reg, w, r0, r1, a = make_system(nonces=ZeroNonceSource())
        run_sequentially(sim, "w", [w.write_max_op(5)])
        before = reg.R.peek().seq
        run_sequentially(sim, "w", [w.write_max_op(5)])
        assert reg.R.peek().seq == before


class TestConcurrentExecutions:
    @pytest.mark.parametrize("seed", range(20))
    def test_audit_exact_and_monotone(self, seed):
        built = build_max_register_system(RegisterWorkload(seed=seed))
        history = built.run()
        assert check_audit_exactness(history, built.register) == []
        assert check_value_sequence(
            history, built.register, monotone=True
        ) == []
        assert check_phase_structure(history, built.register) == []

    @pytest.mark.parametrize("seed", range(15))
    def test_linearizable(self, seed):
        built = build_max_register_system(
            RegisterWorkload(seed=seed, reads_per_reader=3,
                             writes_per_writer=2)
        )
        history = built.run()
        spec = auditable_max_register_spec(0, built.reader_index)
        assert check_history(history.operations(), spec).ok

    @pytest.mark.parametrize("substrate", ["atomic", "cas"])
    def test_substrate_ablation_equivalent_results(self, substrate):
        for seed in range(8):
            built = build_max_register_system(
                RegisterWorkload(seed=seed), max_substrate=substrate
            )
            history = built.run()
            assert check_audit_exactness(history, built.register) == []
            reads = [
                op.result
                for op in history.complete_operations(name="read")
            ]
            assert all(isinstance(v, int) for v in reads)

    @pytest.mark.parametrize("seed", range(10))
    def test_wait_free_under_storm(self, seed):
        from repro.sim.scheduler import PrioritySchedule

        built = build_max_register_system(
            RegisterWorkload(num_readers=4, num_writers=1,
                             reads_per_reader=8, writes_per_writer=4,
                             seed=seed),
            schedule=PrioritySchedule({"r": 25.0}, seed=seed),
        )
        history = built.run()
        assert history.pending_operations() == []


class TestHelpingPath:
    def test_writer_adopts_sequence_number_when_overtaken(self):
        """A writeMax that loses its sequence number but whose value is
        still the maximum retries with a fresh number (lines 28-30).

        Interleaving: w2's embedded M.read happens *before* w1 writes
        10 to M, so w2 installs 5 under sequence number 1; w1 then finds
        its number taken but 10 still unrecorded."""
        sim = Simulation()
        reg = AuditableMaxRegister(num_readers=1, initial=0)
        w1 = reg.writer(sim.spawn("w1"))
        w2 = reg.writer(sim.spawn("w2"))
        # w2: invocation, M.write_max(5), SN.read, R.read, M.read -> 5;
        # stall before archiving/CAS.
        sim.add_program("w2", [w2.write_max_op(5)])
        for _ in range(5):
            sim.step_process("w2")
        # w1: invocation, M.write_max(10), SN.read (sn=1), R.read; stall.
        sim.add_program("w1", [w1.write_max_op(10)])
        for _ in range(4):
            sim.step_process("w1")
        # w2 finishes: installs (1, 5).
        sim.run_process("w2")
        assert reg.R.peek().seq == 1
        assert reg.R.peek().val.value == 5
        # w1 resumes: CAS fails, sees lsn >= sn with lval < 10, takes
        # the lines-28-30 path and installs 10 at sequence number 2.
        sim.run_process("w1")
        assert reg.R.peek().val.value == 10
        assert reg.R.peek().seq == 2

    def test_writer_abandons_when_larger_value_present(self):
        sim = Simulation()
        reg = AuditableMaxRegister(num_readers=1, initial=0)
        w1 = reg.writer(sim.spawn("w1"))
        w2 = reg.writer(sim.spawn("w2"))
        sim.add_program("w2", [w2.write_max_op(100)])
        sim.run_process("w2")
        sim.add_program("w1", [w1.write_max_op(10)])
        sim.run_process("w1")
        cas = sim.history.primitive_events(
            pid="w1", obj_name=reg.R.name, primitive="compare_and_swap"
        )
        assert cas == []  # abandoned before any install attempt
        assert reg.R.peek().val.value == 100


class TestNoncedOrdering:
    def test_lexicographic(self):
        assert Nonced(1, 99) < Nonced(2, 0)
        assert Nonced(2, 0) < Nonced(2, 1)
        assert Nonced(3, 5) == Nonced(3, 5)
        assert max(Nonced(1, 9), Nonced(1, 10)) == Nonced(1, 10)

    def test_hashable_frozen(self):
        assert len({Nonced(1, 2), Nonced(1, 2), Nonced(1, 3)}) == 2
