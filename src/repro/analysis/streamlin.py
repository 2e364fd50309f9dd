"""Online linearizability: a streaming checker with a rolling frontier.

Every batch verdict path buffers a complete history before checking it,
which caps validated runs at what memory holds.  This module checks a
history *as its events arrive*:

**Configurations.**  The checker maintains the set of *configurations*
``(mask, state)`` — every spec state reachable by linearizing some
precedence-closed subset (``mask``) of the resident operations.  The
set is kept eagerly closed: whenever an operation's response arrives
(fixing its result), every configuration that can linearize it — all
real-time predecessors already in its mask — spawns the extended
configuration, transitively.  This is the same bitmask Wing-Gong walk
as :func:`~repro.analysis.fastlin.check_history`, run breadth-complete
and incrementally instead of depth-first over a buffered history.
Precedence is an interval order, so the ops a configuration can take
next are a prefix of the resident ops in invocation order: those
invoked before the first response outside its mask.  The closure
visits only those, and a response that every other completed op
precedes extends only the *full* configurations (all completed ops
linearized), so its cost does not grow with the resident ops.  When
exactly one full configuration exists, that response costs one
``spec.apply`` and one set add, inline in ``respond``.

**Per-event cost.**  :meth:`StreamingLinChecker.feed` dispatches each
event once, straight to its partition.  A resident operation is a
``__slots__`` record holding only what the closure applies and its
interval.  Primitive events carry no linearizability content, so a
streaming :class:`~repro.sim.history.History` need not build them:
:meth:`StreamingLinChecker.count_primitive` takes just the index.

**Forced cuts and the rolling verified frontier.**  Real-time
precedence is an interval order, so once every *open* (invoked,
unanswered) operation was invoked after operation ``r``'s response,
``r`` precedes everything that can still arrive: every viable future
linearizes ``r`` using only already-completed operations — paths the
eager closure has already materialised.  Configurations not containing
``r`` are therefore redundant (pruned), and ``r``'s bit is **retired**:
removed from every mask, its record freed, its bit recycled.  If *no*
configuration contains ``r`` at that point the history is not
linearizable — FAIL, proven online.  Retired prefixes come with a
certificate: the history up to ``frontier_index`` is linearizable no
matter what arrives later, so a disconnected stream still yields a
meaningful PARTIAL verdict — never a bogus OK.

**Bounded memory.**  Under sustained load operations retire as soon as
the oldest in-flight operation postdates them, so peak resident
operations track the stream's *overlap width* (how many operations are
concurrent at once), not its length.  Pending operations can never be
retired — their intervals extend to infinity — so they stay resident
until the stream ends, exactly matching the batch semantics where a
pending operation may linearize anywhere after its invocation (or be
dropped with a :data:`~repro.analysis.fastlin.PENDING` result).

**P-compositionality.**  A spec with ``partition_key`` splits the
stream into independent per-key sub-streams, each with its own resident
set, configurations, frontier and budget accounting.

**Structured budgets.**  Closure work is metered per *window* of
``window`` events: more than ``max_nodes_per_window`` transitions in
one window, or more than ``max_configs`` live configurations, marks the
partition undecided — it stops checking but keeps draining (residents
dropped, memory stays bounded) and the final verdict degrades to
:data:`~repro.analysis.fastlin.LIN_UNDECIDED` instead of OK, naming the
budget that cut it (:attr:`StreamVerdict.budget`).  Wide
adversarial overlap (hundreds of operations mutually concurrent) is
where the configuration set can genuinely grow.  It also grows, cheaply,
when one operation stays open across a burst of sequential completions
(a thread switched out mid-operation while another keeps running):
nothing in the burst can retire, and the configurations form a chain of
prefixes, one per completed op of the burst, whose full end alone takes
each new response.

The long-running service front-end is ``python -m repro serve``
(:mod:`repro.rt.serve`); :mod:`repro.rt.stress` streams into this
checker when ``--online`` is set.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.analysis.fastlin import (
    DEFAULT_MAX_NODES,
    LIN_FAIL,
    LIN_OK,
    LIN_UNDECIDED,
    PENDING,
    SeqSpec,
    partition_subspec,
)
from repro.sim.events import Invocation, Response
from repro.sim.history import OperationRecord

#: Events per budget-accounting window.
DEFAULT_WINDOW = 256

#: Live configurations before a partition is declared undecided.  A
#: burst of completions across one open operation holds about one
#: configuration per op of the burst (a few hundred on thread-runtime
#: streams); only wide adversarial overlap approaches this.
DEFAULT_MAX_CONFIGS = 4096

#: Verdict of a stream that ended (disconnect, truncation) before its
#: ``end`` marker: the retired prefix is verified, the rest unknown.
LIN_PARTIAL = "partial"


@dataclass
class StreamProgress:
    """Structured progress of one streaming check (all partitions)."""

    events: int = 0
    ops_started: int = 0
    ops_completed: int = 0
    ops_retired: int = 0
    resident_ops: int = 0
    peak_resident_ops: int = 0
    #: Largest event index verified regardless of what arrives later.
    frontier_index: int = -1
    windows: int = 0
    undecided_windows: int = 0
    explored: int = 0
    partitions: int = 0
    #: Live configurations — the possible spec states at the frontier.
    frontier_states: int = 0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "ops_started": self.ops_started,
            "ops_completed": self.ops_completed,
            "ops_retired": self.ops_retired,
            "resident_ops": self.resident_ops,
            "peak_resident_ops": self.peak_resident_ops,
            "frontier_index": self.frontier_index,
            "windows": self.windows,
            "undecided_windows": self.undecided_windows,
            "explored": self.explored,
            "partitions": self.partitions,
            "frontier_states": self.frontier_states,
        }


@dataclass
class StreamVerdict:
    """Outcome of a streaming check.

    ``status`` is :data:`~repro.analysis.fastlin.LIN_OK`,
    :data:`~repro.analysis.fastlin.LIN_FAIL`,
    :data:`~repro.analysis.fastlin.LIN_UNDECIDED` (a window exhausted
    its node or configuration budget, named by ``budget``) or
    :data:`LIN_PARTIAL` (the stream ended without a proper finish — the
    prefix up to ``progress.frontier_index`` is verified, the rest is
    unknown).
    """

    status: str
    progress: StreamProgress
    #: The budget that cut an undecided search: ``"max_configs"`` or
    #: ``"max_nodes_per_window"`` (``None`` unless ``status`` is
    #: :data:`~repro.analysis.fastlin.LIN_UNDECIDED`).
    budget: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == LIN_OK

    def __bool__(self) -> bool:
        return self.ok


class _ResidentGauge:
    """Current/peak count of resident ops across all partitions."""

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def add(self, n: int) -> None:
        self.current += n
        if self.current > self.peak:
            self.peak = self.current


class _Resident:
    """One resident operation: what the closure applies, and its
    interval."""

    __slots__ = (
        "pid", "name", "args", "invoke_index", "response_index", "result",
    )

    def __init__(
        self, pid: str, name: str, args: Tuple[Any, ...], invoke_index: int
    ) -> None:
        self.pid = pid
        self.name = name
        self.args = args
        self.invoke_index = invoke_index
        self.response_index: Optional[int] = None
        self.result: Any = None


class _PartitionStream:
    """One partition's residents, configurations and verdict."""

    __slots__ = (
        "spec", "window", "max_nodes", "max_configs", "gauge",
        "ops", "by_key", "pred", "done", "free_bits", "next_bit",
        "completed_mask", "configs", "full",
        "retired", "windows", "undecided_windows", "explored",
        "window_events", "window_explored",
        "failed", "dead", "cut_by", "frontier_index", "last_index",
    )

    def __init__(
        self,
        spec: SeqSpec,
        window: int,
        max_nodes: int,
        max_configs: int,
        gauge: _ResidentGauge,
    ) -> None:
        self.spec = spec
        self.window = window
        self.max_nodes = max_nodes
        self.max_configs = max_configs
        self.gauge = gauge
        #: bit position -> resident operation (open or completed), in
        #: invocation order.
        self.ops: Dict[int, _Resident] = {}
        self.by_key: Dict[Tuple[str, int], int] = {}
        #: bit position of an *open* op -> mask of its resident
        #: real-time predecessors (retired predecessors are implicit:
        #: they are in every mask).
        self.pred: Dict[int, int] = {}
        #: Completed resident bits in response order.
        self.done: Deque[int] = deque()
        self.free_bits: List[int] = []
        self.next_bit = 0
        self.completed_mask = 0
        self.configs: Set[Tuple[int, Any]] = {(0, spec.initial)}
        #: States of the *full* configurations: mask == completed_mask.
        self.full: List[Any] = [spec.initial]
        self.retired = 0
        self.windows = 0
        self.undecided_windows = 0
        self.explored = 0
        self.window_events = 0
        self.window_explored = 0
        self.failed = False
        self.dead = False  # stop checking; keep draining events
        #: The budget that killed the partition, if one did.
        self.cut_by: Optional[str] = None
        self.frontier_index = -1
        self.last_index = -1

    # -- event intake ------------------------------------------------------

    def _tick(self, index: int) -> None:
        self.last_index = index
        self.window_events += 1
        if self.window_events >= self.window:
            self.windows += 1
            self.window_events = 0
            self.window_explored = 0

    def invoke(self, key: Tuple[str, int], op: _Resident) -> None:
        self._tick(op.invoke_index)
        if self.dead:
            return
        bit = self.free_bits.pop() if self.free_bits else self.next_bit
        if bit == self.next_bit:
            self.next_bit += 1
        self.ops[bit] = op
        self.by_key[key] = bit
        # Everything already completed precedes this op; open residents
        # are concurrent with it.
        self.pred[bit] = self.completed_mask
        self.gauge.add(1)

    def respond(self, key: Tuple[str, int], result: Any, index: int) -> None:
        self._tick(index)
        if self.dead:
            return
        bit = self.by_key.pop(key, None)
        if bit is None:
            raise ValueError(f"response for unknown operation {key!r}")
        op = self.ops[bit]
        op.response_index = index
        op.result = result
        fresh = 1 << bit
        pred = self.pred.pop(bit)
        full = self.full
        self.done.append(bit)
        if pred != self.completed_mask or len(full) != 1:
            self.completed_mask |= fresh
            self._extend(fresh, pred)
            if not self.dead:
                self._retire()
            return
        # Every other completed op precedes this one and one full
        # configuration exists: it alone can take the op, and the new
        # configuration is full, so it enables nothing more.  This is
        # ``_extend``'s first step inlined, same count and budgets.
        completed = self.completed_mask = pred | fresh
        self.explored += 1
        self.window_explored += 1
        if self.window_explored > self.max_nodes:
            self._die(failed=False, cut_by="max_nodes_per_window")
            return
        state = self.spec.apply(full[0], op.name, op.args, result, op.pid)
        if state is None:
            full.clear()
        else:
            configs = self.configs
            configs.add((completed, state))
            if len(configs) > self.max_configs:
                self._die(failed=False, cut_by="max_configs")
                return
            full[0] = state
        self._retire()

    # -- the configuration closure -----------------------------------------

    def _enabler(self) -> Callable[[int], int]:
        """``enabled(mask)``: the completed ops outside ``mask`` whose
        real-time predecessors are all in ``mask``.

        Precedence is an interval order, so ``pred[i] <= mask`` holds
        iff ``i`` was invoked before the first response outside
        ``mask``: the answer is a prefix of the ops in invocation
        order.  Two prefix-OR tables (response order, invocation order)
        find it with a binary search and a bisect.
        """
        ops = self.ops
        resp_or = [0]
        resp_at: List[int] = []
        acc = 0
        for i in self.done:
            acc |= 1 << i
            resp_or.append(acc)
            resp_at.append(ops[i].response_index)
        inv_or = [0]
        inv_at: List[int] = []
        acc = 0
        for i, op in ops.items():
            acc |= 1 << i
            inv_or.append(acc)
            inv_at.append(op.invoke_index)
        completed = self.completed_mask
        n = len(resp_at)

        def enabled(mask: int) -> int:
            outside = ~mask
            lo, hi = 0, n  # the longest response-order prefix in mask
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if resp_or[mid] & outside:
                    hi = mid - 1
                else:
                    lo = mid
            cut = len(inv_at) if lo == n else bisect_left(inv_at, resp_at[lo])
            return inv_or[cut] & completed & outside

        return enabled

    def _extend(self, fresh_mask: int, fresh_pred: Optional[int]) -> None:
        """Restore eager closure after ``fresh_mask`` ops completed.

        Existing configurations only need to try the fresh ops (their
        other extensions are already materialised).  One fresh op can
        only extend configurations holding its predecessors
        ``fresh_pred``: when those are every other completed op, that
        is the one full configuration, if any; otherwise a scan finds
        them.  (Two full configurations take the scan too, so the
        closure visits configurations in the set's order, and the
        ``explored`` count at a ``max_configs`` cut does not move.)
        Several fresh ops (:meth:`finish`) come without ``fresh_pred``:
        each configuration tries the fresh ops its cut enables.
        Configurations discovered during the sweep try every op their
        cut enables (:meth:`_enabler`).
        """
        apply = self.spec.apply
        ops = self.ops
        configs = self.configs
        completed = self.completed_mask
        enabled: Optional[Callable[[int], int]] = None
        stack: List[Tuple[int, Any, Optional[int]]]
        if fresh_pred is None:
            enabled = self._enabler()
            stack = []
            for mask, state in configs:
                cand = enabled(mask) & fresh_mask
                if cand:
                    stack.append((mask, state, cand))
        elif completed ^ fresh_mask == fresh_pred and len(self.full) < 2:
            stack = [(fresh_pred, state, fresh_mask) for state in self.full]
        else:
            keep = fresh_pred | fresh_mask
            stack = [
                (mask, state, fresh_mask)
                for mask, state in configs
                if mask & keep == fresh_pred
            ]
        full: List[Any] = []
        self.full = full
        trans: Dict[Tuple[int, Any], Any] = {}
        max_nodes = self.max_nodes
        max_configs = self.max_configs
        while stack:
            mask, state, cand = stack.pop()
            if cand is None:
                if mask == completed:
                    continue
                if enabled is None:
                    enabled = self._enabler()
                cand = enabled(mask)
            while cand:
                bmask = cand & -cand
                cand ^= bmask
                self.explored += 1
                self.window_explored += 1
                if self.window_explored > max_nodes:
                    self._die(failed=False, cut_by="max_nodes_per_window")
                    return
                i = bmask.bit_length() - 1
                key = (i, state)
                if key in trans:
                    new_state = trans[key]
                else:
                    op = ops[i]
                    new_state = trans[key] = apply(
                        state, op.name, op.args, op.result, op.pid
                    )
                if new_state is None:
                    continue
                new_mask = mask | bmask
                cfg = (new_mask, new_state)
                if cfg in configs:
                    continue
                configs.add(cfg)
                if len(configs) > max_configs:
                    self._die(failed=False, cut_by="max_configs")
                    return
                if new_mask == completed:
                    full.append(new_state)
                stack.append((new_mask, new_state, None))

    # -- the rolling frontier ----------------------------------------------

    def _retire(self) -> None:
        """Forced cut: free every op all viable futures have linearized.

        A completed op whose response precedes every open op's
        invocation precedes everything that can still arrive, and the
        eager closure has already materialised every order among it and
        its completed concurrents — so configurations lacking it are
        redundant and its bit can be dropped.  No configuration
        containing it means no linearization can ever include it: FAIL.
        The retirable ops are a prefix of :attr:`done`.
        """
        done = self.done
        if not done:
            return
        ops = self.ops
        cut = None
        if self.pred:
            cut = min(ops[i].invoke_index for i in self.pred)
            if ops[done[0]].response_index > cut:
                return
        retire_bits: List[int] = []
        retire_mask = 0
        while done and (cut is None or ops[done[0]].response_index < cut):
            i = done.popleft()
            retire_bits.append(i)
            retire_mask |= 1 << i
        survivors = {
            (mask & ~retire_mask, state)
            for mask, state in self.configs
            if mask & retire_mask == retire_mask
        }
        if not survivors:
            self._die(failed=True)
            return
        self.configs = survivors
        # Free the bits in invocation order, so bit reuse is independent
        # of how the retired ops were found.
        retire_bits.sort(key=lambda i: ops[i].invoke_index)
        for i in retire_bits:
            del ops[i]
            self.free_bits.append(i)
        pred = self.pred
        for i in pred:
            pred[i] &= ~retire_mask
        self.completed_mask &= ~retire_mask
        self.retired += len(retire_bits)
        self.gauge.add(-len(retire_bits))

    def _die(self, *, failed: bool, cut_by: Optional[str] = None) -> None:
        """Stop checking (budget ``cut_by`` blown or violation proven),
        drop all residency so memory stays bounded, keep draining
        events."""
        if failed:
            self.failed = True
        else:
            self.undecided_windows += 1
            self.cut_by = cut_by
        self.dead = True
        self.frontier_index = self.frontier(self.last_index)
        self.gauge.add(-len(self.ops))
        self.ops.clear()
        self.by_key.clear()
        self.pred.clear()
        self.done.clear()
        self.configs = set()
        self.full = []

    def frontier(self, last_index: int) -> int:
        """Largest event index verified no matter what arrives later,
        given the stream's last event index: a live partition holding
        no operation holds nothing back."""
        if self.dead:
            return self.frontier_index
        if self.ops:
            return min(op.invoke_index for op in self.ops.values()) - 1
        return last_index

    def finish(self) -> str:
        """Final verdict for this partition, pending ops included."""
        if self.failed:
            return LIN_FAIL
        if self.dead:
            return LIN_UNDECIDED
        required = self.completed_mask
        # A pending op (never responded / crashed) may linearize
        # anywhere after its invocation with a PENDING result, or be
        # dropped — exactly the batch semantics.  Make them addable and
        # re-close with a fresh window budget.
        pending_mask = 0
        for i in self.pred:
            self.ops[i].result = PENDING
            pending_mask |= 1 << i
        if pending_mask:
            self.completed_mask |= pending_mask
            self.window_explored = 0
            self._extend(pending_mask, None)
            if self.dead:
                return LIN_FAIL if self.failed else LIN_UNDECIDED
        for mask, _state in self.configs:
            if mask & required == required:
                count = len(self.ops)
                self.retired += count
                self.gauge.add(-count)
                self.ops.clear()
                self.by_key.clear()
                self.pred.clear()
                self.done.clear()
                self.completed_mask = 0
                self.frontier_index = self.last_index
                return LIN_OK
        return LIN_FAIL


class StreamingLinChecker:
    """Incremental linearizability over an event stream.

    Feed :class:`~repro.sim.events.Invocation` /
    :class:`~repro.sim.events.Response` events (crash and primitive
    events are accepted and ignored — a crashed operation simply stays
    pending) in history-index order via :meth:`feed`, or hand it a
    primitive's index alone via :meth:`count_primitive`, then call
    :meth:`finish` for the final verdict or :meth:`partial` when the
    stream was cut.
    """

    def __init__(
        self,
        spec: SeqSpec,
        *,
        window: int = DEFAULT_WINDOW,
        max_nodes_per_window: int = DEFAULT_MAX_NODES,
        max_configs: int = DEFAULT_MAX_CONFIGS,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.spec = spec
        self.window = window
        self.max_nodes_per_window = max_nodes_per_window
        self.max_configs = max_configs
        self._partitions: Dict[Any, _PartitionStream] = {}
        self._route: Dict[Tuple[str, int], _PartitionStream] = {}
        self._gauge = _ResidentGauge()
        self._events = 0
        self._started = 0
        self._completed = 0
        self._last_index = -1
        self._verdict: Optional[str] = None

    # -- partition routing -------------------------------------------------

    def _partition_for(
        self, name: str, args: Tuple[Any, ...]
    ) -> _PartitionStream:
        if self.spec.partition_key is None:
            key = None
        else:
            key = self.spec.partition_key(name, args)
        stream = self._partitions.get(key)
        if stream is None:
            if self.spec.partition_key is None:
                subspec = self.spec
            else:
                subspec = partition_subspec(self.spec, key)
            stream = _PartitionStream(
                subspec, self.window, self.max_nodes_per_window,
                self.max_configs, self._gauge,
            )
            self._partitions[key] = stream
        return stream

    # -- event intake ------------------------------------------------------

    def feed(self, event: Any) -> None:
        """Consume one history event (in index order).  Primitive and
        crash events carry no lin content: a crashed op simply stays
        pending."""
        self._events += 1
        index = event.index
        if index > self._last_index:
            self._last_index = index
        kind = type(event)
        if kind is Response:
            self._completed += 1
            key = (event.pid, event.op_id)
            stream = self._route.pop(key, None)
            if stream is None:
                raise ValueError(f"response for unknown operation {key!r}")
            stream.respond(key, event.result, index)
        elif kind is Invocation:
            self._started += 1
            name, args = event.op_name, tuple(event.args)
            stream = self._partition_for(name, args)
            key = (event.pid, event.op_id)
            self._route[key] = stream
            stream.invoke(key, _Resident(event.pid, name, args, index))

    def count_primitive(self, index: int) -> None:
        """Count primitive event ``index`` without receiving it: its
        index is all that :meth:`feed` reads of a primitive event."""
        self._events += 1
        if index > self._last_index:
            self._last_index = index

    def feed_operations(
        self, operations: Sequence[OperationRecord]
    ) -> None:
        """Decompose finished operation records into an event stream
        (index-ordered) and feed it — the offline entry point."""
        events: List[Any] = []
        for op in operations:
            events.append(Invocation(
                op.invoke_index, op.pid, op.op_id, op.name, op.args
            ))
            if op.response_index is not None:
                events.append(Response(
                    op.response_index, op.pid, op.op_id, op.name, op.result
                ))
        events.sort(key=lambda event: event.index)
        for event in events:
            self.feed(event)

    # -- verdicts ----------------------------------------------------------

    def progress(self) -> StreamProgress:
        # The global verified frontier: every event at or before it lies
        # in the retired (verified) region.  A partition's unverified
        # region starts at its earliest resident invocation; a dead
        # partition stalls at wherever its own frontier stopped.
        frontier = self._last_index
        for p in self._partitions.values():
            frontier = min(frontier, p.frontier(self._last_index))
        return StreamProgress(
            events=self._events,
            ops_started=self._started,
            ops_completed=self._completed,
            ops_retired=sum(p.retired for p in self._partitions.values()),
            resident_ops=self._gauge.current,
            peak_resident_ops=self._gauge.peak,
            frontier_index=frontier,
            windows=sum(p.windows for p in self._partitions.values()),
            undecided_windows=sum(
                p.undecided_windows for p in self._partitions.values()
            ),
            explored=sum(p.explored for p in self._partitions.values()),
            partitions=len(self._partitions),
            frontier_states=sum(
                len(p.configs) for p in self._partitions.values()
            ),
        )

    @property
    def peak_resident_ops(self) -> int:
        return self._gauge.peak

    def _verdict_of(self, status: str) -> StreamVerdict:
        """``status`` with the progress; an undecided one names the
        budget that killed its first undecided partition."""
        budget = None
        if status == LIN_UNDECIDED:
            budget = next(
                (p.cut_by for p in self._partitions.values() if p.cut_by),
                None,
            )
        return StreamVerdict(status, self.progress(), budget)

    def finish(self) -> StreamVerdict:
        """The stream ended properly: produce the full verdict
        (equal to the batch fastlin verdict on the same history)."""
        if self._verdict is None:
            statuses = {p.finish() for p in self._partitions.values()}
            if LIN_FAIL in statuses:
                self._verdict = LIN_FAIL
            elif LIN_UNDECIDED in statuses:
                self._verdict = LIN_UNDECIDED
            else:
                self._verdict = LIN_OK
        return self._verdict_of(self._verdict)

    def partial(self) -> StreamVerdict:
        """The stream was cut (disconnect, truncation): report the
        verified frontier.  A violation already proven still FAILs; an
        exhausted budget still reads UNDECIDED; otherwise the verdict
        is PARTIAL — never a bogus OK."""
        if any(p.failed for p in self._partitions.values()):
            return self._verdict_of(LIN_FAIL)
        if any(p.dead for p in self._partitions.values()):
            return self._verdict_of(LIN_UNDECIDED)
        return self._verdict_of(LIN_PARTIAL)


def check_history_streaming(
    operations: Sequence[OperationRecord],
    spec: SeqSpec,
    *,
    window: int = DEFAULT_WINDOW,
    max_nodes_per_window: int = DEFAULT_MAX_NODES,
    max_configs: int = DEFAULT_MAX_CONFIGS,
) -> StreamVerdict:
    """Stream a recorded history through :class:`StreamingLinChecker`.

    The verdict's ``status`` equals the batch
    :func:`~repro.analysis.fastlin.check_history` status on the same
    operations and spec (given sufficient budgets); memory is bounded
    by the stream's overlap width instead of its length.
    """
    checker = StreamingLinChecker(
        spec,
        window=window,
        max_nodes_per_window=max_nodes_per_window,
        max_configs=max_configs,
    )
    checker.feed_operations(operations)
    return checker.finish()
