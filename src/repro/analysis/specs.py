"""Sequential specifications for the linearizability checker.

Each factory returns a :class:`~repro.analysis.fastlin.SeqSpec`.
The auditable specs implement the paper's sequential specification of an
auditable object: a pair ``(j, v)`` appears in an audit's response *iff*
a read by ``p_j`` returning ``v`` precedes the audit (accuracy +
completeness).

Reader identity: histories record ``read()`` with empty args, but the
auditable specs must know which reader performed each read.  Callers tag
operations with their pid first (:func:`tag_reads` /
:func:`tag_ops_with_pid`).

Spec states are hashable tuples so the checker can memoise on them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.analysis.fastlin import PENDING, SeqSpec


def register_spec(initial: Any, name: str = "register") -> SeqSpec:
    """Plain read/write register: a read returns the latest write."""

    def apply(state, op_name, args, result):
        if op_name == "write":
            return args[0]
        if op_name == "read":
            if result is PENDING or result == state:
                return state
            return None
        return None

    return SeqSpec(name, initial, apply)


def max_register_spec(initial: Any, name: str = "max_register") -> SeqSpec:
    """Max register: a read returns the largest value written so far."""

    def apply(state, op_name, args, result):
        if op_name in ("write_max", "writeMax"):
            return max(state, args[0])
        if op_name == "read":
            if result is PENDING or result == state:
                return state
            return None
        return None

    return SeqSpec(name, initial, apply)


def counter_object_spec(name: str = "counter") -> SeqSpec:
    """Counter: update(d) adds d, read returns the running total."""

    def apply(state, op_name, args, result):
        if op_name == "update":
            return state + args[0]
        if op_name == "read":
            if result is PENDING or result == state:
                return state
            return None
        return None

    return SeqSpec(name, 0, apply)


def auditable_register_spec(
    initial: Any,
    reader_index: Dict[str, int],
    name: str = "auditable_register",
) -> SeqSpec:
    """Auditable register: state is ``(value, frozenset((j, v)))``.

    Reads must be tagged with their pid (:func:`tag_reads`); audits'
    results must equal the set of pairs of linearized preceding reads.
    """

    def apply(state, op_name, args, result):
        value, pairs = state
        if op_name == "write":
            return (args[0], pairs)
        if op_name == "read":
            if result is not PENDING and result != value:
                return None
            j = reader_index[args[0]]
            return (value, pairs | {(j, value)})
        if op_name == "audit":
            if result is PENDING or result == pairs:
                return state
            return None
        return None

    return SeqSpec(name, (initial, frozenset()), apply)


def auditable_max_register_spec(
    initial: Any,
    reader_index: Dict[str, int],
    name: str = "auditable_max_register",
) -> SeqSpec:
    """Auditable max register: like the register spec but monotone."""

    def apply(state, op_name, args, result):
        value, pairs = state
        if op_name in ("write_max", "writeMax"):
            return (max(value, args[0]), pairs)
        if op_name == "read":
            if result is not PENDING and result != value:
                return None
            j = reader_index[args[0]]
            return (value, pairs | {(j, value)})
        if op_name == "audit":
            if result is PENDING or result == pairs:
                return state
            return None
        return None

    return SeqSpec(name, (initial, frozenset()), apply)


def snapshot_spec(
    components: int,
    initial: Any,
    updater_index: Dict[str, int],
    scanner_index: Optional[Dict[str, int]] = None,
    name: str = "snapshot",
) -> SeqSpec:
    """(Auditable) snapshot: state is ``(view, frozenset((j, view)))``.

    ``update``/``scan`` operations must be tagged with their pid
    (:func:`tag_ops_with_pid`); scan results must equal the current
    view; audit results must equal the pair set of preceding scans.
    """
    scanner_index = scanner_index or {}

    def apply(state, op_name, args, result):
        view, pairs = state
        if op_name == "update":
            value, pid = args[0], args[-1]
            i = updater_index[pid]
            new_view = view[:i] + (value,) + view[i + 1:]
            return (new_view, pairs)
        if op_name == "scan":
            if result is not PENDING and result != view:
                return None
            pid = args[-1] if args else None
            if pid in scanner_index:
                return (view, pairs | {(scanner_index[pid], view)})
            return state
        if op_name == "audit":
            if result is PENDING or result == pairs:
                return state
            return None
        return None

    return SeqSpec(name, ((initial,) * components, frozenset()), apply)


def versioned_spec(
    type_spec,
    reader_index: Dict[str, int],
    name: Optional[str] = None,
) -> SeqSpec:
    """Auditable versioned type (Theorem 13): state is
    ``(q, frozenset((j, out)))`` for a
    :class:`~repro.core.versioned.TypeSpec`.

    ``update(v)`` applies ``g``; tagged reads return ``f(q)`` and add
    their pair; audits must equal the pair set.
    """

    def apply(state, op_name, args, result):
        q, pairs = state
        if op_name == "update":
            return (type_spec.apply_update(args[0], q), pairs)
        if op_name == "read":
            out = type_spec.read_out(q)
            if result is not PENDING and result != out:
                return None
            j = reader_index[args[0]]
            return (q, pairs | {(j, out)})
        if op_name == "audit":
            if result is PENDING or result == pairs:
                return state
            return None
        return None

    return SeqSpec(
        name or f"auditable_{type_spec.name}",
        (type_spec.initial_state, frozenset()),
        apply,
    )


def stream_register_spec(
    initial: Any, name: str = "stream_register"
) -> SeqSpec:
    """Value-only auditable-register spec for *streaming* validation.

    The full :func:`auditable_register_spec` state carries the set of
    all ``(reader, value)`` pairs, which grows with every distinct read
    — sound for bounded histories, hopeless for million-op streams.
    This spec keeps only the register value: reads are checked exactly,
    audits are accepted unconditionally.  Audit exactness is *not*
    weakened — it moves to the syntactic
    :class:`~repro.analysis.audit_checks.WindowedAuditOracle`, which
    Theorem 8 proves equivalent on fetch&xor-based implementations.
    No reader tagging is needed, so the spec composes with untagged
    event streams.
    """

    def apply(state, op_name, args, result):
        if op_name == "write":
            return args[0]
        if op_name == "read":
            if result is PENDING or result == state:
                return state
            return None
        if op_name == "audit":
            return state
        return None

    return SeqSpec(name, initial, apply)


def stream_max_register_spec(
    initial: Any, name: str = "stream_max_register"
) -> SeqSpec:
    """Value-only auditable-max-register spec (see
    :func:`stream_register_spec` for why audits pass unchecked)."""

    def apply(state, op_name, args, result):
        if op_name in ("write_max", "writeMax"):
            return max(state, args[0])
        if op_name == "read":
            if result is PENDING or result == state:
                return state
            return None
        if op_name == "audit":
            return state
        return None

    return SeqSpec(name, initial, apply)


def stream_snapshot_spec(
    components: int,
    initial: Any,
    updater_index: Dict[str, int],
    name: str = "stream_snapshot",
) -> SeqSpec:
    """View-only snapshot spec for streaming validation.

    ``update`` operations must be pid-tagged
    (:func:`tag_ops_with_pid` offline, ``tag=`` hook of the streaming
    checker online); scans check the full view; audits pass unchecked
    (the lifted windowed audit oracle covers them).
    """

    def apply(state, op_name, args, result):
        if op_name == "update":
            value, pid = args[0], args[-1]
            i = updater_index[pid]
            return state[:i] + (value,) + state[i + 1:]
        if op_name == "scan":
            if result is PENDING or result == state:
                return state
            return None
        if op_name == "audit":
            return state
        return None

    return SeqSpec(name, (initial,) * components, apply)


def register_array_spec(
    initial: Any = 0, name: str = "register_array"
) -> SeqSpec:
    """Array of independent registers: ``write(cell, v)`` / ``read(cell)``.

    Every operation touches exactly one cell, so the spec declares the
    P-compositionality hooks: :class:`~repro.analysis.fastlin.
    FastLinChecker` partitions the history per cell and checks each
    projection against a plain per-cell register spec, turning one
    exponential search into many small ones.  The global ``apply``
    (state: sorted tuple of ``(cell, value)`` pairs) is also provided,
    so partition-unaware checkers -- e.g. the legacy reference oracle --
    verify the *same* spec object; differential tests compare the two
    paths directly.
    """

    def global_apply(state, op_name, args, result):
        cells = dict(state)
        cell = args[0]
        current = cells.get(cell, initial)
        if op_name == "write":
            cells[cell] = args[1]
            return tuple(sorted(cells.items(), key=repr))
        if op_name == "read":
            if result is PENDING or result == current:
                return state
            return None
        return None

    def cell_spec(cell: Any) -> SeqSpec:
        def apply(state, op_name, args, result):
            if op_name == "write":
                return args[1]
            if op_name == "read":
                if result is PENDING or result == state:
                    return state
                return None
            return None

        return SeqSpec(f"{name}[{cell!r}]", initial, apply)

    return SeqSpec(
        name,
        (),
        global_apply,
        partition_key=lambda op_name, args: args[0],
        partition_spec=cell_spec,
    )


def tag_read_op(op):
    """A copy of a read with its args set to ``(pid,)``; other
    operations pass through unchanged."""
    if op.name == "read" and not op.args:
        return replace(op, args=(op.pid,), primitives=list(op.primitives))
    return op


def tag_pid_op(op, names=("update", "scan")):
    """A copy of an operation named in ``names`` with its pid appended
    to its args; other operations pass through unchanged."""
    if op.name in names:
        return replace(
            op, args=op.args + (op.pid,), primitives=list(op.primitives)
        )
    return op


def tag_reads(operations):
    """:func:`tag_read_op` over a history's operations."""
    return [tag_read_op(op) for op in operations]


def tag_ops_with_pid(operations, names=("update", "scan")):
    """:func:`tag_pid_op` over a history's operations."""
    return [tag_pid_op(op, names) for op in operations]
