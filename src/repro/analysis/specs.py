"""Sequential specifications for the linearizability checker.

Each factory returns a :class:`~repro.analysis.fastlin.SeqSpec`.
The auditable specs implement the paper's sequential specification of an
auditable object: a pair ``(j, v)`` appears in an audit's response *iff*
a read by ``p_j`` returning ``v`` precedes the audit (accuracy +
completeness).

Reader identity: every operation is invoked by a process, and the
checkers hand each ``apply`` that process's ``pid``.  The auditable
specs map it to the reader's index ``j`` through the ``reader_index``
they were built with (a snapshot's updaters pick their component the
same way), so histories are checked exactly as recorded.  A read by a
pid missing from the index raises ``KeyError``: the history does not
fit the spec.

Spec states are hashable tuples so the checker can memoise on them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis.fastlin import PENDING, SeqSpec

#: What an audit gets from :func:`_spec`: plain specs reject it; the
#: streaming specs accept it in a partition of its own
#: (:func:`_audits_apart`); the auditable specs check it against the
#: pairs of the reads linearized before it.
_REJECTED, _APART, _CHECKED = "rejected", "apart", "checked"

_Update = Callable[[Any, Tuple[Any, ...], str], Any]


def _same(value: Any) -> Any:
    return value


def _spec(
    name: str,
    initial: Any,
    updates: Tuple[str, ...],
    update: _Update,
    read_out: Callable[[Any], Any],
    audit: str,
    reader_index: Optional[Dict[str, int]] = None,
    reads: str = "read",
) -> SeqSpec:
    """The one constructor of the object specs.

    An op named in ``updates`` moves the value by
    ``update(value, args, pid)``; a ``reads`` op must return
    ``read_out(value)``; ``audit`` is one of :data:`_REJECTED`,
    :data:`_APART` or :data:`_CHECKED`.  A :data:`_CHECKED` spec's state
    is ``(value, frozenset((j, out)))``: each read adds the pair of its
    reader ``j = reader_index[pid]`` (none without ``reader_index``),
    and an audit must return exactly the pairs.  Other states are the
    bare value.  A pending read (``result is PENDING``) returns the
    canonical ``read_out(value)``.
    """
    if audit == _CHECKED:

        def apply(state, op_name, args, result, pid):
            value, pairs = state
            if op_name in updates:
                return (update(value, args, pid), pairs)
            if op_name == reads:
                out = read_out(value)
                if result is not PENDING and result != out:
                    return None
                if reader_index is None:
                    return state
                return (value, pairs | {(reader_index[pid], out)})
            if op_name == "audit" and (result is PENDING or result == pairs):
                return state
            return None

        return SeqSpec(name, (initial, frozenset()), apply)

    accept_audits = audit == _APART

    def apply(state, op_name, args, result, pid):
        if op_name in updates:
            return update(state, args, pid)
        if op_name == reads:
            if result is PENDING or result == read_out(state):
                return state
            return None
        if accept_audits and op_name == "audit":
            return state
        return None

    return SeqSpec(
        name, initial, apply,
        partition_key=_audits_apart if accept_audits else None,
    )


def _write(value, args, pid):
    return args[0]


def _write_max(value, args, pid):
    return max(value, args[0])


def _add(value, args, pid):
    return value + args[0]


_WRITE_MAX = ("write_max", "writeMax")


def _component_update(updater_index: Dict[str, int]) -> _Update:
    """Snapshot ``update(v)``: the updater's own component takes ``v``."""

    def update(view, args, pid):
        i = updater_index[pid]
        return view[:i] + (args[0],) + view[i + 1:]

    return update


def register_spec(initial: Any, name: str = "register") -> SeqSpec:
    """Plain read/write register: a read returns the latest write."""
    return _spec(name, initial, ("write",), _write, _same, _REJECTED)


def max_register_spec(initial: Any, name: str = "max_register") -> SeqSpec:
    """Max register: a read returns the largest value written so far."""
    return _spec(name, initial, _WRITE_MAX, _write_max, _same, _REJECTED)


def counter_object_spec(name: str = "counter") -> SeqSpec:
    """Counter: update(d) adds d, read returns the running total."""
    return _spec(name, 0, ("update",), _add, _same, _REJECTED)


def auditable_register_spec(
    initial: Any,
    reader_index: Dict[str, int],
    name: str = "auditable_register",
) -> SeqSpec:
    """Auditable register: state is ``(value, frozenset((j, v)))``;
    audits' results must equal the set of pairs of linearized
    preceding reads."""
    return _spec(
        name, initial, ("write",), _write, _same, _CHECKED, reader_index
    )


def auditable_max_register_spec(
    initial: Any,
    reader_index: Dict[str, int],
    name: str = "auditable_max_register",
) -> SeqSpec:
    """Auditable max register: like the register spec but monotone."""
    return _spec(
        name, initial, _WRITE_MAX, _write_max, _same, _CHECKED, reader_index
    )


def snapshot_spec(
    components: int,
    initial: Any,
    updater_index: Dict[str, int],
    scanner_index: Optional[Dict[str, int]] = None,
    name: str = "snapshot",
) -> SeqSpec:
    """(Auditable) snapshot: state is ``(view, frozenset((j, view)))``.

    ``update(v)`` sets the updater's component (``updater_index``);
    scan results must equal the current view; audit results must equal
    the pair set of preceding scans, which stays empty without a
    ``scanner_index``.
    """
    return _spec(
        name, (initial,) * components, ("update",),
        _component_update(updater_index), _same, _CHECKED,
        scanner_index or None, reads="scan",
    )


def versioned_spec(
    type_spec,
    reader_index: Dict[str, int],
    name: Optional[str] = None,
) -> SeqSpec:
    """Auditable versioned type (Theorem 13): state is
    ``(q, frozenset((j, out)))`` for a
    :class:`~repro.core.versioned.TypeSpec`.

    ``update(v)`` applies ``g``; reads return ``f(q)`` and add their
    pair; audits must equal the pair set.
    """
    return _spec(
        name or f"auditable_{type_spec.name}", type_spec.initial_state,
        ("update",), lambda q, args, pid: type_spec.apply_update(args[0], q),
        type_spec.read_out, _CHECKED, reader_index,
    )


def _audits_apart(op_name: str, args: Tuple[Any, ...]) -> bool:
    """``partition_key`` of the streaming specs: audits form one
    partition, every other operation the other.

    Sound because those specs accept every audit and leave the state
    unchanged (see :class:`~repro.analysis.fastlin.SeqSpec`): the audit
    partition always linearizes, and the object partition is checked
    exactly as if the audits were absent.  Audit exactness is the
    windowed audit oracle's job either way.
    """
    return op_name == "audit"


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
    Since audits neither change the state nor can fail, they sit in a
    partition of their own (:func:`_audits_apart`) and never enter the
    search over reads and writes.
    """
    return _spec(name, initial, ("write",), _write, _same, _APART)


def stream_max_register_spec(
    initial: Any, name: str = "stream_max_register"
) -> SeqSpec:
    """Value-only auditable-max-register spec (see
    :func:`stream_register_spec` for why audits pass unchecked, in a
    partition of their own)."""
    return _spec(name, initial, _WRITE_MAX, _write_max, _same, _APART)


def stream_snapshot_spec(
    components: int,
    initial: Any,
    updater_index: Dict[str, int],
    name: str = "stream_snapshot",
) -> SeqSpec:
    """View-only snapshot spec for streaming validation: scans check
    the full view; audits pass unchecked in a partition of their own
    (the lifted windowed audit oracle covers them)."""
    return _spec(
        name, (initial,) * components, ("update",),
        _component_update(updater_index), _same, _APART, reads="scan",
    )


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

    def global_apply(state, op_name, args, result, pid):
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
        def apply(state, op_name, args, result, pid):
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
