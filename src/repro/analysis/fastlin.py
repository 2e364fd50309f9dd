"""High-performance linearizability oracle (the default since PR 4).

Every verdict the repository emits -- experiment PASS/FAIL, model
checking in :mod:`repro.mc`, stress post-validation in
:mod:`repro.rt.stress` -- funnels through a linearizability check, so
this module rewrites the Wing-Gong search around four ideas:

**Bitmask search.**  The set of linearized operations is an integer
bitmask, predecessor/successor constraints are precomputed bitmasks
(one O(n log n) sorted sweep over invoke/response indices, not the
historical O(n^2) pairwise ``precedes`` loop), eligibility is a single
``preds[i] & ~done`` test, memoisation keys are ``(mask, state)``
tuples, and the witness order is reconstructed from parent pointers
instead of copied ``order + [i]`` lists.  Spec transitions are memoised
on ``(op, state)`` so a state reached along many interleavings pays for
each operation's ``apply`` once.

**Forced-operation pruning (Lowe-style just-in-time).**  When a
complete operation precedes every other unlinearized operation it must
be linearized *next*: if the spec accepts it, it is the node's only
child (no sibling expansion); if the spec rejects it, the whole node is
dead.  Mostly-sequential histories -- the shape real stress runs
produce -- degenerate into a linear walk.

**P-compositionality.**  A specification may declare that its
operations partition into independent sub-objects (a register cell, a
versioned key) via the ``partition_key`` hook on :class:`SeqSpec`.  The
checker then splits the history by key and checks each partition
independently: a history is linearizable w.r.t. the product
specification iff every per-key projection is linearizable w.r.t. the
per-key specification, turning one exponential search into many small
ones.  The hook is sound only when **every** operation touches exactly
one partition -- specs whose reads observe the whole state (snapshot
scans, versioned reads) must not declare it.

**Structured budgets.**  Exceeding the node budget returns a
``status == "undecided"`` result instead of raising, so stress runs and
model-checking verdict collection degrade gracefully.

The original naive search survives as :func:`legacy_check_history`:
the differential reference the property tests and
``benchmarks/bench_b10_lin_throughput.py`` measure this checker
against.

Recorded histories travel as JSON payloads (:func:`op_to_payload`)
and specs *by name* (:func:`spec_from_name`), because closures do not
pickle: that is how the ``lin`` campaign kind
(:class:`repro.campaign.executors.LinExecutor`, which ``python -m
repro lin`` runs) fans batches of histories across the engine's worker
pool with byte-identical, resumable JSONL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.sim.history import OperationRecord


class _Pending:
    def __repr__(self) -> str:
        return "<pending>"


#: Sentinel result handed to ``SeqSpec.apply`` for operations that never
#: responded: the spec should accept them with any legal return value.
PENDING = _Pending()

#: Default node budget; exceeding it yields ``status == LIN_UNDECIDED``.
DEFAULT_MAX_NODES = 2_000_000

LIN_OK = "ok"
LIN_FAIL = "fail"
LIN_UNDECIDED = "undecided"


@dataclass(frozen=True)
class SeqSpec:
    """A sequential specification.

    ``apply(state, name, args, result)`` returns the successor state if
    the operation with the given result is legal in ``state``, else
    ``None``.  When ``result is PENDING`` the operation never returned:
    the spec should accept it with any legal return value (for total
    operations this means: accept, return the successor state for the
    canonical result).

    States must be hashable (used as memoisation keys).

    P-compositionality hooks (both optional):

    - ``partition_key(op_name, args)`` maps an operation to the
      independent sub-object it touches (register cell, versioned key).
      When set, :class:`FastLinChecker` splits the history by key and
      checks each partition independently.  Declare it **only** when
      every operation touches exactly one partition; specs whose
      operations observe global state (snapshot scans, audits over all
      readers) must leave it ``None``.  One exception is sound: an
      operation the spec accepts in *every* state with *any* result,
      leaving the state unchanged, may get a partition of its own.
      Linearizability is local, and such an operation can always be
      placed anywhere inside its real-time interval, so removing it
      from the other partition's search changes no verdict.  The
      streaming specs in :mod:`repro.analysis.specs` send ``audit``
      apart this way (the windowed audit oracle checks audits).
    - ``partition_spec(key)`` builds the per-partition specification;
      when ``None`` the partition is checked against this spec itself
      (with the hooks stripped).
    """

    name: str
    initial: Any
    apply: Callable[[Any, str, Tuple[Any, ...], Any], Optional[Any]]
    partition_key: Optional[Callable[[str, Tuple[Any, ...]], Any]] = None
    partition_spec: Optional[Callable[[Any], "SeqSpec"]] = None


@dataclass
class LinearizationResult:
    """Outcome of one linearizability check.

    ``status`` is one of :data:`LIN_OK`, :data:`LIN_FAIL`,
    :data:`LIN_UNDECIDED` (node budget exhausted before a verdict);
    ``ok`` is kept as the primary field for backward compatibility and
    is ``False`` for undecided results -- budget-aware callers must
    branch on ``status`` (or :attr:`undecided`), not ``ok`` alone.
    ``order`` is a witness linearization for accepted histories checked
    in a single partition (``None`` when ``partitions > 1``: each
    partition has its own witness and a merged one is not materialised).
    """

    ok: bool
    order: Optional[List[OperationRecord]] = None
    explored: int = 0
    status: str = ""
    partitions: int = 1

    def __post_init__(self) -> None:
        if not self.status:
            self.status = LIN_OK if self.ok else LIN_FAIL

    def __bool__(self) -> bool:
        return self.ok

    @property
    def undecided(self) -> bool:
        return self.status == LIN_UNDECIDED


def precedence_masks(
    ops: Sequence[OperationRecord],
) -> Tuple[List[int], List[int]]:
    """Per-operation predecessor and successor bitmasks.

    ``preds[j]`` has bit ``i`` set iff ``ops[i]`` responded before
    ``ops[j]`` was invoked (``ops[i].precedes(ops[j])``); ``succs[i]``
    is the transpose.  One sorted sweep over the invoke/response index
    sequences -- O(n log n), replacing the historical O(n^2) pairwise
    loop (event indices are globally unique, so there are no ties).
    """
    preds, succs, _ = _precedence_structure(ops)
    return preds, succs


def _precedence_structure(
    ops: Sequence[OperationRecord],
) -> Tuple[List[int], List[int], List[int]]:
    """``(preds, succs, imm_succs)`` bitmasks from one sorted sweep.

    ``imm_succs`` is the transitive reduction's successor relation:
    ``j`` is an *immediate* successor of ``i`` when ``i`` precedes
    ``j`` with no operation strictly between them.  Real-time
    precedence is an interval order, so the non-immediate predecessors
    of ``j`` are exactly the predecessors of the latest-invoked member
    of ``preds[j]`` -- computable during the same sweep.  The search
    walks ``imm_succs`` to maintain its eligible set incrementally:
    an operation can only become eligible when its last outstanding
    predecessor is linearized, and that predecessor is always
    immediate.
    """
    n = len(ops)
    preds = [0] * n
    succs = [0] * n
    imm_succs = [0] * n
    responses = sorted(
        (ops[i].response_index, i)
        for i in range(n)
        if ops[i].response_index is not None
    )
    by_invoke = sorted((ops[i].invoke_index, i) for i in range(n))
    mask = 0
    r = 0
    latest = -1  # responded op with the greatest invoke index so far
    latest_invoke = -1
    for invoke, j in by_invoke:
        while r < len(responses) and responses[r][0] < invoke:
            k = responses[r][1]
            if ops[k].invoke_index > latest_invoke:
                latest, latest_invoke = k, ops[k].invoke_index
            mask |= 1 << k
            r += 1
        preds[j] = mask
        if mask:
            # Non-immediate predecessors of j = preds of the
            # latest-invoked predecessor (interval-order property).
            imm = mask & ~preds[latest]
            bits = imm
            while bits:
                bit = bits & -bits
                bits ^= bit
                imm_succs[bit.bit_length() - 1] |= 1 << j
    mask = 0
    i = n - 1
    for response, k in reversed(responses):
        while i >= 0 and by_invoke[i][0] > response:
            mask |= 1 << by_invoke[i][1]
            i -= 1
        succs[k] = mask
    return preds, succs, imm_succs


def partition_subspec(spec: SeqSpec, key: Any) -> SeqSpec:
    """The spec partition ``key`` of ``spec`` is checked against:
    ``spec.partition_spec(key)`` when declared, else ``spec`` itself,
    with the hooks stripped so a partition is never re-partitioned."""
    if spec.partition_spec is not None:
        spec = spec.partition_spec(key)
    if spec.partition_key is not None:
        spec = replace(spec, partition_key=None, partition_spec=None)
    return spec


class FastLinChecker:
    """Checks one object's history against a sequential spec.

    Exceeding ``max_nodes`` returns a structured :data:`LIN_UNDECIDED`
    result instead of raising.
    """

    def __init__(
        self, spec: SeqSpec, max_nodes: int = DEFAULT_MAX_NODES
    ) -> None:
        self.spec = spec
        self.max_nodes = max_nodes

    def check(
        self, operations: Sequence[OperationRecord]
    ) -> LinearizationResult:
        ops = list(operations)
        if self.spec.partition_key is None:
            return self._search(ops, self.spec, self.max_nodes)
        return self._check_partitioned(ops)

    # -- P-compositionality -------------------------------------------

    def _check_partitioned(self, ops) -> LinearizationResult:
        groups: Dict[Any, List[OperationRecord]] = {}
        for op in ops:
            key = self.spec.partition_key(op.name, op.args)
            groups.setdefault(key, []).append(op)
        partitions = max(1, len(groups))
        explored = 0
        orders = []
        # Insertion order is history order: deterministic across runs.
        for key, part in groups.items():
            result = self._search(
                part, partition_subspec(self.spec, key),
                self.max_nodes - explored,
            )
            explored += result.explored
            if result.status == LIN_FAIL:
                return LinearizationResult(
                    False, None, explored, LIN_FAIL, partitions
                )
            if result.status == LIN_UNDECIDED:
                return LinearizationResult(
                    False, None, explored, LIN_UNDECIDED, partitions
                )
            orders.append(result.order)
        order = None
        if partitions == 1 and orders:
            order = orders[0]
        elif not groups:
            order = []
        return LinearizationResult(True, order, explored, LIN_OK, partitions)

    # -- the core bitmask search --------------------------------------

    @staticmethod
    def _search(
        ops: List[OperationRecord], spec: SeqSpec, max_nodes: int
    ) -> LinearizationResult:
        n = len(ops)
        if n == 0:
            return LinearizationResult(True, [])
        preds, _succs, imm_succs = _precedence_structure(ops)
        complete_mask = 0
        for i, op in enumerate(ops):
            if op.is_complete:
                complete_mask |= 1 << i
        all_mask = (1 << n) - 1
        apply = spec.apply
        # Hoist per-op attribute lookups out of the search loop.
        calls = [
            (op.name, op.args,
             op.result if op.is_complete else PENDING)
            for op in ops
        ]
        # state -> {op index -> successor state or None}: a state
        # reached along many interleavings pays for each op's apply
        # once, and the state is hashed once per node rather than once
        # per candidate.
        transitions: Dict[Any, Dict[int, Any]] = {}
        initial = spec.initial
        seen = {(0, initial)}
        seen_add = seen.add
        # child (mask, state) -> (parent mask, parent state, op index):
        # the witness order is walked out of this map on success instead
        # of copying a list at every node.
        parents: Dict[Tuple[int, Any], Tuple[int, Any, int]] = {}
        # The eligible set rides on the stack and is maintained
        # incrementally: a node only ever scans the ops it could
        # actually linearize next (O(concurrency width)), never the
        # whole remainder.  This also subsumes Lowe-style just-in-time
        # pruning -- when one operation is forced, the eligible set is
        # that singleton, so a spec rejection ends the node with no
        # sibling scan at all.
        eligible0 = 0
        for i in range(n):
            if not preds[i]:
                eligible0 |= 1 << i
        stack: List[Tuple[int, Any, int]] = [(0, initial, eligible0)]
        stack_pop = stack.pop
        stack_append = stack.append
        explored = 0

        while stack:
            mask, state, eligible = stack_pop()
            explored += 1
            if explored > max_nodes:
                return LinearizationResult(
                    False, None, explored, LIN_UNDECIDED
                )
            # Chain fast-forward: while exactly one operation is
            # eligible there is nothing to branch over -- advance in
            # place with no stack traffic and no seen-set hashing.
            # This is also where Lowe-style just-in-time pruning lives:
            # a spec rejection of the sole eligible op kills the node
            # outright (and with it, for complete ops, the subtree a
            # sibling scan would have wasted time on).
            dead = False
            while eligible and not eligible & (eligible - 1):
                if mask & complete_mask == complete_mask:
                    break  # success, handled below
                i = eligible.bit_length() - 1
                trans = transitions.get(state)
                if trans is None:
                    trans = transitions[state] = {}
                if i in trans:
                    new_state = trans[i]
                else:
                    name, args, result = calls[i]
                    new_state = trans[i] = apply(state, name, args, result)
                if new_state is None:
                    dead = True
                    break
                cmask = mask | eligible
                parents[(cmask, new_state)] = (mask, state, i)
                explored += 1
                if explored > max_nodes:
                    return LinearizationResult(
                        False, None, explored, LIN_UNDECIDED
                    )
                child_eligible = 0
                crem = all_mask & ~cmask
                enable = imm_succs[i] & crem
                while enable:
                    ebit = enable & -enable
                    enable ^= ebit
                    if not preds[ebit.bit_length() - 1] & crem:
                        child_eligible |= ebit
                mask, state, eligible = cmask, new_state, child_eligible
            if dead:
                continue
            if mask & complete_mask == complete_mask:
                # All complete ops linearized; remaining pending ops are
                # simply dropped.
                order = []
                key = (mask, state)
                while key in parents:
                    pmask, pstate, i = parents[key]
                    order.append(ops[i])
                    key = (pmask, pstate)
                order.reverse()
                return LinearizationResult(True, order, explored)
            trans = transitions.get(state)
            if trans is None:
                trans = transitions[state] = {}
            rem = eligible
            while rem:
                bit = rem & -rem
                rem ^= bit
                i = bit.bit_length() - 1
                if i in trans:
                    new_state = trans[i]
                else:
                    name, args, result = calls[i]
                    new_state = trans[i] = apply(state, name, args, result)
                if new_state is None:
                    continue
                cmask = mask | bit
                ckey = (cmask, new_state)
                if ckey in seen:
                    continue
                # Newly eligible ops: only immediate successors of i
                # can have had i as their last outstanding predecessor.
                child_eligible = eligible ^ bit
                crem = all_mask & ~cmask
                enable = imm_succs[i] & crem
                while enable:
                    ebit = enable & -enable
                    enable ^= ebit
                    if not preds[ebit.bit_length() - 1] & crem:
                        child_eligible |= ebit
                seen_add(ckey)
                parents[ckey] = (mask, state, i)
                stack_append((cmask, new_state, child_eligible))
        return LinearizationResult(False, None, explored)


def check_history(
    operations: Sequence[OperationRecord],
    spec: SeqSpec,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> LinearizationResult:
    """Convenience wrapper; budget overruns yield ``LIN_UNDECIDED``."""
    return FastLinChecker(spec, max_nodes=max_nodes).check(operations)


def legacy_check_history(
    operations: Sequence[OperationRecord],
    spec: SeqSpec,
    max_nodes: int = 2_000_000,
) -> LinearizationResult:
    """The original naive Wing-Gong search, kept as a reference oracle.

    O(n^2) pairwise ``precedes`` precomputation, full eligibility
    rescans, ``order + [i]`` list copies and frozenset-keyed
    memoisation -- exactly the seed implementation.  The fastlin
    property tests cross-check the rewrite against this function, and
    ``bench_b10`` measures the rewrite's speedup relative to it.
    Partitioning hooks on ``spec`` are ignored (the global ``apply``
    is used), which is what makes differential runs meaningful.
    """
    ops = list(operations)
    n = len(ops)
    if n == 0:
        return LinearizationResult(True, [])
    preds: List[Set[int]] = [set() for _ in range(n)]
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j and a.precedes(b):
                preds[j].add(i)
    complete = [i for i, op in enumerate(ops) if op.is_complete]
    explored = 0
    seen: Set[Tuple[frozenset, Any]] = set()

    def eligible(done: Set[int]) -> List[int]:
        return [
            i
            for i in range(n)
            if i not in done and preds[i] <= done
        ]

    stack: List[Tuple[frozenset, Any, List[int]]] = []
    seen.add((frozenset(), spec.initial))
    stack.append((frozenset(), spec.initial, []))
    while stack:
        done, state, order = stack.pop()
        explored += 1
        if explored > max_nodes:
            raise RuntimeError(
                f"linearizability search exceeded {max_nodes} "
                "nodes; reduce history size"
            )
        if all(i in done for i in complete):
            return LinearizationResult(
                True, [ops[i] for i in order], explored
            )
        for i in eligible(set(done)):
            op = ops[i]
            result = op.result if op.is_complete else PENDING
            new_state = spec.apply(state, op.name, op.args, result)
            if new_state is None:
                continue
            new_done = done | {i}
            key = (new_done, new_state)
            if key in seen:
                continue
            seen.add(key)
            stack.append((new_done, new_state, order + [i]))
    return LinearizationResult(False, None, explored)


# ---------------------------------------------------------------------
# Operation payloads: histories as canonical JSON
# ---------------------------------------------------------------------
#
# Batched checks (the ``lin`` campaign kind) ship histories through the
# engine, whose checkpoint records are canonical JSON -- but operation
# arguments and results contain tuples and frozensets (snapshot views,
# audit pair sets) that plain JSON flattens ambiguously.  The codec below tags
# containers so a payload round-trip reconstructs values that compare
# equal under every sequential spec:
#
#   tuple     -> {"t": [...]}         frozenset/set -> {"s": [...]}
#   list      -> {"l": [...]}         dict          -> {"d": [[k, v]...]}
#
# Set and dict members are sorted by their canonical encoding, so equal
# values always serialize to identical bytes.

#: The canonical sort key; one encoder object serves every call
#: (``json.dumps`` with options builds a fresh one each time).
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: What :func:`encode_strict` returns for a value the codec cannot carry.
UNENCODABLE = object()


def encode_strict(value: Any) -> Any:
    """:func:`encode_value`, returning :data:`UNENCODABLE` where it
    would raise: one pass for callers that fall back to another codec
    (the event log's loose tags)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        pairs = []
        for key, item in value.items():
            key, item = encode_strict(key), encode_strict(item)
            if key is UNENCODABLE or item is UNENCODABLE:
                return UNENCODABLE
            pairs.append([key, item])
        pairs.sort(key=_canon)
        return {"d": pairs}
    if isinstance(value, tuple):
        tag = "t"
    elif isinstance(value, list):
        tag = "l"
    elif isinstance(value, (set, frozenset)):
        tag = "s"
    else:
        return UNENCODABLE
    items = []
    for item in value:
        item = encode_strict(item)
        if item is UNENCODABLE:
            return UNENCODABLE
        items.append(item)
    if tag == "s":
        items.sort(key=_canon)
    return {tag: items}


def encode_value(value: Any) -> Any:
    """JSON-safe, canonical, round-trippable encoding of a value."""
    encoded = encode_strict(value)
    if encoded is UNENCODABLE:
        raise TypeError(
            f"cannot encode {type(value).__name__!r} (or a value inside "
            f"it) into a history payload"
        )
    return encoded


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if not isinstance(encoded, dict):
        return encoded
    (tag, items), = encoded.items()
    if tag == "t":
        return tuple(decode_value(v) for v in items)
    if tag == "l":
        return [decode_value(v) for v in items]
    if tag == "s":
        return frozenset(decode_value(v) for v in items)
    if tag == "d":
        return {decode_value(k): decode_value(v) for k, v in items}
    raise ValueError(f"unknown payload tag {tag!r}")


def op_to_payload(op: OperationRecord) -> Dict[str, Any]:
    """The JSON-safe projection of an operation (primitives dropped:
    the linearizability oracle never looks at them)."""
    return {
        "pid": op.pid,
        "op_id": op.op_id,
        "name": op.name,
        "args": encode_value(tuple(op.args)),
        "invoke": op.invoke_index,
        "response": op.response_index,
        "result": encode_value(op.result),
    }


def op_from_payload(payload: Dict[str, Any]) -> OperationRecord:
    """Inverse of :func:`op_to_payload`."""
    return OperationRecord(
        pid=payload["pid"],
        op_id=payload["op_id"],
        name=payload["name"],
        args=decode_value(payload["args"]),
        invoke_index=payload["invoke"],
        response_index=payload["response"],
        result=decode_value(payload["result"]),
    )


# ---------------------------------------------------------------------
# Named specifications: specs that travel across process boundaries
# ---------------------------------------------------------------------

def _spec_builders() -> Dict[str, Callable[..., SeqSpec]]:
    from repro.analysis import specs

    return {
        "register": lambda initial=0: specs.register_spec(initial),
        "max_register": lambda initial=0: specs.max_register_spec(initial),
        "counter": lambda: specs.counter_object_spec(),
        "register_array": lambda initial=0: specs.register_array_spec(
            initial
        ),
        "auditable_register": lambda initial="v0", reader_index=None:
            specs.auditable_register_spec(initial, reader_index or {}),
        "auditable_max_register": lambda initial=0, reader_index=None:
            specs.auditable_max_register_spec(initial, reader_index or {}),
        "snapshot": lambda components=1, initial=0, updater_index=None,
            scanner_index=None: specs.snapshot_spec(
                components, initial, updater_index or {}, scanner_index
            ),
        "stream_register": lambda initial="v0":
            specs.stream_register_spec(initial),
        "stream_max_register": lambda initial=0:
            specs.stream_max_register_spec(initial),
        "stream_snapshot": lambda components=1, initial=0,
            updater_index=None: specs.stream_snapshot_spec(
                components, initial, updater_index or {}
            ),
    }


def spec_names() -> List[str]:
    """Names accepted by :func:`spec_from_name` (and ``repro lin``)."""
    return sorted(_spec_builders())


def spec_from_name(name: str, **params: Any) -> SeqSpec:
    """Build a named spec from JSON-safe parameters.

    Worker processes and the ``repro lin`` CLI reconstruct specs from
    ``(name, params)`` pairs -- spec closures do not pickle, names do
    (the same trick :mod:`repro.mc.scenarios` uses for scenarios).
    """
    builders = _spec_builders()
    try:
        builder = builders[name]
    except KeyError:
        known = ", ".join(sorted(builders))
        raise KeyError(
            f"unknown spec {name!r}; registered: {known}"
        ) from None
    return builder(**params)
