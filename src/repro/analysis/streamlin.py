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
:data:`~repro.analysis.fastlin.LIN_UNDECIDED` instead of OK.  Wide
adversarial overlap (hundreds of operations mutually concurrent) is
where the configuration set can genuinely grow; bounded overlap — every
real runtime workload — keeps it near one configuration per open op.

The long-running service front-end is ``python -m repro serve``
(:mod:`repro.rt.serve`); :mod:`repro.rt.stress` streams into this
checker when ``--online`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.fastlin import (
    DEFAULT_MAX_NODES,
    LIN_FAIL,
    LIN_OK,
    LIN_UNDECIDED,
    PENDING,
    SeqSpec,
    partition_subspec,
)
from repro.sim.events import CrashEvent, Invocation, Response
from repro.sim.history import OperationRecord

#: Events per budget-accounting window.
DEFAULT_WINDOW = 256

#: Live configurations before a partition is declared undecided.  Real
#: workloads sit near one configuration per open operation; only wide
#: adversarial overlap approaches this.
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
    its node or configuration budget) or :data:`LIN_PARTIAL` (the
    stream ended without a proper finish — the prefix up to
    ``progress.frontier_index`` is verified, the rest is unknown).
    """

    status: str
    progress: StreamProgress

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


class _PartitionStream:
    """One partition's residents, configurations and verdict."""

    __slots__ = (
        "spec", "window", "max_nodes", "max_configs", "gauge",
        "ops", "by_key", "pred", "free_bits", "next_bit",
        "completed_mask", "open_count", "configs",
        "retired", "windows", "undecided_windows", "explored",
        "window_events", "window_explored",
        "failed", "dead", "frontier_index", "last_index",
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
        #: bit position -> resident operation (open or completed).
        self.ops: Dict[int, OperationRecord] = {}
        self.by_key: Dict[Tuple[str, int], int] = {}
        #: bit position -> mask of resident real-time predecessors
        #: (retired predecessors are implicit: they are in every mask).
        self.pred: Dict[int, int] = {}
        self.free_bits: List[int] = []
        self.next_bit = 0
        self.completed_mask = 0
        self.open_count = 0
        self.configs: Set[Tuple[int, Any]] = {(0, spec.initial)}
        self.retired = 0
        self.windows = 0
        self.undecided_windows = 0
        self.explored = 0
        self.window_events = 0
        self.window_explored = 0
        self.failed = False
        self.dead = False  # stop checking; keep draining events
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

    def invoke(self, op: OperationRecord) -> None:
        self._tick(op.invoke_index)
        if self.dead:
            return
        bit = self.free_bits.pop() if self.free_bits else self.next_bit
        if bit == self.next_bit:
            self.next_bit += 1
        self.ops[bit] = op
        self.by_key[op.key()] = bit
        # Everything already completed precedes this op; open residents
        # are concurrent with it.
        self.pred[bit] = self.completed_mask
        self.open_count += 1
        self.gauge.add(1)

    def respond(self, pid: str, op_id: int, result: Any, index: int) -> None:
        self._tick(index)
        if self.dead:
            return
        bit = self.by_key.pop((pid, op_id), None)
        if bit is None:
            raise ValueError(
                f"response for unknown operation ({pid!r}, {op_id})"
            )
        op = self.ops[bit]
        op.response_index = index
        op.result = result
        self.open_count -= 1
        self.completed_mask |= 1 << bit
        self._extend(1 << bit)
        if not self.dead:
            self._retire()

    # -- the configuration closure -----------------------------------------

    def _extend(self, fresh_mask: int) -> None:
        """Restore eager closure after ``fresh_mask`` ops completed.

        Existing configurations only need to try the fresh bits (their
        other extensions are already materialised); configurations
        discovered during the sweep try every completed op.
        """
        apply = self.spec.apply
        ops = self.ops
        pred = self.pred
        configs = self.configs
        trans: Dict[Tuple[int, Any], Any] = {}
        stack = [(cfg, fresh_mask) for cfg in configs]
        max_nodes = self.max_nodes
        while stack:
            (mask, state), cand = stack.pop()
            rem = cand & self.completed_mask & ~mask
            while rem:
                bmask = rem & -rem
                rem ^= bmask
                i = bmask.bit_length() - 1
                if pred[i] & ~mask:
                    continue  # a predecessor is not linearized yet
                self.explored += 1
                self.window_explored += 1
                if self.window_explored > max_nodes:
                    self._die(failed=False)
                    return
                key = (i, state)
                if key in trans:
                    new_state = trans[key]
                else:
                    op = ops[i]
                    new_state = trans[key] = apply(
                        state, op.name, op.args, op.result
                    )
                if new_state is None:
                    continue
                cfg = (mask | bmask, new_state)
                if cfg in configs:
                    continue
                configs.add(cfg)
                if len(configs) > self.max_configs:
                    self._die(failed=False)
                    return
                stack.append((cfg, self.completed_mask))

    # -- the rolling frontier ----------------------------------------------

    def _retire(self) -> None:
        """Forced cut: free every op all viable futures have linearized.

        A completed op whose response precedes every open op's
        invocation precedes everything that can still arrive, and the
        eager closure has already materialised every order among it and
        its completed concurrents — so configurations lacking it are
        redundant and its bit can be dropped.  No configuration
        containing it means no linearization can ever include it: FAIL.
        """
        if self.open_count:
            cut = min(
                op.invoke_index
                for op in self.ops.values()
                if op.response_index is None
            )
        else:
            cut = None
        retire_mask = 0
        retire_bits: List[int] = []
        for i, op in self.ops.items():
            if op.response_index is not None and (
                cut is None or op.response_index < cut
            ):
                retire_mask |= 1 << i
                retire_bits.append(i)
        if not retire_mask:
            return
        survivors = {
            (mask & ~retire_mask, state)
            for mask, state in self.configs
            if mask & retire_mask == retire_mask
        }
        if not survivors:
            self._die(failed=True)
            return
        self.configs = survivors
        for i in retire_bits:
            del self.ops[i]
            del self.pred[i]
            self.free_bits.append(i)
        for i in self.pred:
            self.pred[i] &= ~retire_mask
        self.completed_mask &= ~retire_mask
        self.retired += len(retire_bits)
        self.gauge.add(-len(retire_bits))

    def _die(self, *, failed: bool) -> None:
        """Stop checking (budget blown or violation proven), drop all
        residency so memory stays bounded, keep draining events."""
        if failed:
            self.failed = True
        else:
            self.undecided_windows += 1
        self.dead = True
        self.frontier_index = self.frontier()
        self.gauge.add(-len(self.ops))
        self.ops.clear()
        self.by_key.clear()
        self.pred.clear()
        self.configs = set()
        self.open_count = 0

    def frontier(self) -> int:
        """Largest event index verified no matter what arrives later."""
        if self.dead:
            return self.frontier_index
        if self.ops:
            return min(op.invoke_index for op in self.ops.values()) - 1
        return self.last_index

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
        for i, op in self.ops.items():
            if op.response_index is None:
                op.result = PENDING
                pending_mask |= 1 << i
        if pending_mask:
            self.completed_mask |= pending_mask
            self.window_explored = 0
            self._extend(pending_mask)
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
                self.completed_mask = 0
                self.open_count = 0
                self.frontier_index = self.last_index
                return LIN_OK
        return LIN_FAIL


class StreamingLinChecker:
    """Incremental linearizability over an event stream.

    Feed :class:`~repro.sim.events.Invocation` /
    :class:`~repro.sim.events.Response` events (crash and primitive
    events are accepted and ignored — a crashed operation simply stays
    pending) in history-index order via :meth:`feed`, then call
    :meth:`finish` for the final verdict or :meth:`partial` when the
    stream was cut.  ``tag`` is an optional per-operation transform
    applied at invocation (e.g. :func:`repro.analysis.specs.tag_read_op`
    for specs that need reader identity); it runs before ``partition_key``.
    """

    def __init__(
        self,
        spec: SeqSpec,
        *,
        window: int = DEFAULT_WINDOW,
        max_nodes_per_window: int = DEFAULT_MAX_NODES,
        max_configs: int = DEFAULT_MAX_CONFIGS,
        tag: Optional[Callable[[OperationRecord], OperationRecord]] = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.spec = spec
        self.window = window
        self.max_nodes_per_window = max_nodes_per_window
        self.max_configs = max_configs
        self.tag = tag
        self._partitions: Dict[Any, _PartitionStream] = {}
        self._route: Dict[Tuple[str, int], _PartitionStream] = {}
        self._gauge = _ResidentGauge()
        self._events = 0
        self._started = 0
        self._completed = 0
        self._last_index = -1
        self._verdict: Optional[str] = None

    # -- partition routing -------------------------------------------------

    def _partition_for(self, op: OperationRecord) -> _PartitionStream:
        if self.spec.partition_key is None:
            key = None
        else:
            key = self.spec.partition_key(op.name, op.args)
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
        """Consume one history event (in index order)."""
        if isinstance(event, Invocation):
            self.on_invoke(
                event.pid, event.op_id, event.op_name, event.args,
                event.index,
            )
        elif isinstance(event, Response):
            self.on_response(
                event.pid, event.op_id, event.result, event.index
            )
        elif isinstance(event, CrashEvent):
            self._events += 1  # the op, if any, simply stays pending
            self._last_index = max(self._last_index, event.index)
        else:
            self._events += 1  # primitive events carry no lin content
            index = getattr(event, "index", None)
            if index is not None:
                self._last_index = max(self._last_index, index)

    def on_invoke(
        self,
        pid: str,
        op_id: int,
        name: str,
        args: Tuple[Any, ...],
        index: int,
    ) -> None:
        self._events += 1
        self._started += 1
        self._last_index = max(self._last_index, index)
        op = OperationRecord(
            pid=pid, op_id=op_id, name=name, args=tuple(args),
            invoke_index=index,
        )
        if self.tag is not None:
            op = self.tag(op)
        stream = self._partition_for(op)
        self._route[(pid, op_id)] = stream
        stream.invoke(op)

    def on_response(
        self, pid: str, op_id: int, result: Any, index: int
    ) -> None:
        self._events += 1
        self._completed += 1
        self._last_index = max(self._last_index, index)
        stream = self._route.pop((pid, op_id), None)
        if stream is None:
            raise ValueError(
                f"response for unknown operation ({pid!r}, {op_id})"
            )
        stream.respond(pid, op_id, result, index)

    def feed_operations(
        self, operations: Sequence[OperationRecord]
    ) -> None:
        """Decompose finished operation records into an event stream
        (index-ordered) and feed it — the offline entry point."""
        events: List[Tuple[int, int, OperationRecord]] = []
        for op in operations:
            events.append((op.invoke_index, 0, op))
            if op.response_index is not None:
                events.append((op.response_index, 1, op))
        events.sort(key=lambda entry: entry[0])
        for index, kind, op in events:
            if kind == 0:
                self.on_invoke(op.pid, op.op_id, op.name, op.args, index)
            else:
                self.on_response(op.pid, op.op_id, op.result, index)

    # -- verdicts ----------------------------------------------------------

    def progress(self) -> StreamProgress:
        # The global verified frontier: every event at or before it lies
        # in the retired (verified) region.  A partition's unverified
        # region starts at its earliest resident invocation; a dead
        # partition stalls at wherever its own frontier stopped.
        frontier = self._last_index
        for p in self._partitions.values():
            frontier = min(frontier, p.frontier())
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
        return StreamVerdict(self._verdict, self.progress())

    def partial(self) -> StreamVerdict:
        """The stream was cut (disconnect, truncation): report the
        verified frontier.  A violation already proven still FAILs; an
        exhausted budget still reads UNDECIDED; otherwise the verdict
        is PARTIAL — never a bogus OK."""
        if any(p.failed for p in self._partitions.values()):
            return StreamVerdict(LIN_FAIL, self.progress())
        if any(p.dead for p in self._partitions.values()):
            return StreamVerdict(LIN_UNDECIDED, self.progress())
        return StreamVerdict(LIN_PARTIAL, self.progress())


def check_history_streaming(
    operations: Sequence[OperationRecord],
    spec: SeqSpec,
    *,
    window: int = DEFAULT_WINDOW,
    max_nodes_per_window: int = DEFAULT_MAX_NODES,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    tag: Optional[Callable[[OperationRecord], OperationRecord]] = None,
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
        tag=tag,
    )
    checker.feed_operations(operations)
    return checker.finish()
