"""Tests for the Wing-Gong linearizability checker itself."""

from repro.analysis.fastlin import (
    LIN_UNDECIDED,
    PENDING,
    SeqSpec,
    check_history,
)
from repro.analysis.specs import register_spec
from repro.sim.history import OperationRecord


def op(pid, op_id, name, args, invoke, respond, result=None):
    return OperationRecord(
        pid=pid,
        op_id=op_id,
        name=name,
        args=args,
        invoke_index=invoke,
        response_index=respond,
        result=result,
    )


SPEC = register_spec(0)


class TestAccepts:
    def test_empty_history(self):
        assert check_history([], SPEC).ok

    def test_sequential_history(self):
        ops = [
            op("w", 0, "write", (5,), 0, 1),
            op("r", 0, "read", (), 2, 3, result=5),
        ]
        assert check_history(ops, SPEC).ok

    def test_concurrent_read_may_return_either(self):
        for value in (0, 5):
            ops = [
                op("w", 0, "write", (5,), 0, 10),
                op("r", 0, "read", (), 1, 9, result=value),
            ]
            assert check_history(ops, SPEC).ok, value

    def test_pending_operation_may_be_dropped(self):
        ops = [
            op("w", 0, "write", (5,), 0, None),
            op("r", 0, "read", (), 1, 2, result=0),
        ]
        assert check_history(ops, SPEC).ok

    def test_pending_operation_may_take_effect(self):
        ops = [
            op("w", 0, "write", (5,), 0, None),
            op("r", 0, "read", (), 1, 2, result=5),
        ]
        assert check_history(ops, SPEC).ok

    def test_pending_read_accepts_any_value(self):
        ops = [
            op("w", 0, "write", (5,), 0, 1),
            op("r", 0, "read", (), 2, None),
        ]
        result = check_history(ops, SPEC)
        assert result.ok

    def test_linearization_order_returned(self):
        ops = [
            op("w", 0, "write", (5,), 0, 1),
            op("r", 0, "read", (), 2, 3, result=5),
        ]
        result = check_history(ops, SPEC)
        assert [o.name for o in result.order] == ["write", "read"]


class TestRejects:
    def test_stale_read(self):
        ops = [
            op("w", 0, "write", (5,), 0, 1),
            op("r", 0, "read", (), 2, 3, result=0),  # already overwritten
        ]
        assert not check_history(ops, SPEC).ok

    def test_value_from_nowhere(self):
        ops = [op("r", 0, "read", (), 0, 1, result=99)]
        assert not check_history(ops, SPEC).ok

    def test_real_time_order_enforced(self):
        # write(1) completes before write(2) starts; a later read
        # cannot return 1.
        ops = [
            op("w", 0, "write", (1,), 0, 1),
            op("w", 1, "write", (2,), 2, 3),
            op("r", 0, "read", (), 4, 5, result=1),
        ]
        assert not check_history(ops, SPEC).ok

    def test_new_old_inversion(self):
        # Two sequential reads around a write: new-old inversion (second
        # read older than first) must be rejected.
        ops = [
            op("w", 0, "write", (1,), 0, 20),
            op("r", 0, "read", (), 1, 2, result=1),
            op("r", 1, "read", (), 3, 4, result=0),
        ]
        assert not check_history(ops, SPEC).ok


class TestSearchBehaviour:
    def test_node_budget(self):
        ops = [
            op("w", 0, "write", (1,), 0, None),
            op("x", 0, "write", (2,), 0, None),
            op("r", 0, "read", (), 0, 1, result=2),
        ]
        assert check_history(ops, SPEC, max_nodes=1).status == LIN_UNDECIDED

    def test_memoisation_counts_nodes_once(self):
        # n concurrent writes of the same value: factorial orders but
        # only 2^n memo states.
        ops = [
            op(f"w{i}", 0, "write", (7,), 0, 100) for i in range(8)
        ] + [op("r", 0, "read", (), 101, 102, result=7)]
        result = check_history(ops, SPEC)
        assert result.ok
        assert result.explored < 2 ** 9

    def test_custom_spec_states_must_hash(self):
        spec = SeqSpec(
            "set",
            frozenset(),
            lambda state, name, args, result, pid: state | {args[0]}
            if name == "add"
            else (state if result is PENDING or result == state else None),
        )
        ops = [
            op("a", 0, "add", (1,), 0, 1),
            op("b", 0, "add", (2,), 2, 3),
            op("r", 0, "read", (), 4, 5, result=frozenset({1, 2})),
        ]
        assert check_history(ops, spec).ok
