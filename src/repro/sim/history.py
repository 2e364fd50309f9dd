"""Execution histories: the recorded event log of a simulation.

A :class:`History` is the machine-checkable counterpart of the paper's
execution ``alpha``: a totally ordered sequence of invocation, response,
primitive and crash events.  All the analysis tooling (linearizability
checking, effectiveness detection, leakage analysis, phase partitioning)
consumes histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.events import CrashEvent, Invocation, PrimitiveEvent, Response


@dataclass
class OperationRecord:
    """A high-level operation reconstructed from the event log."""

    pid: str
    op_id: int
    name: str
    args: Tuple[Any, ...]
    invoke_index: int
    response_index: Optional[int] = None
    result: Any = None
    primitives: List[PrimitiveEvent] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return self.response_index is not None

    @property
    def is_pending(self) -> bool:
        return self.response_index is None

    def precedes(self, other: "OperationRecord") -> bool:
        """Real-time precedence: this op responded before ``other`` was
        invoked."""
        return (
            self.response_index is not None
            and self.response_index < other.invoke_index
        )

    def key(self) -> Tuple[str, int]:
        return (self.pid, self.op_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.is_complete else "pending"
        return (
            f"OperationRecord({self.pid} #{self.op_id} {self.name}"
            f"{self.args!r} -> {self.result!r} [{status}])"
        )


class History:
    """Append-only event log with query helpers.

    A *tap* can be attached with :meth:`stream_to`: every recorded
    event is handed to the sink as it happens (the streaming seam the
    online verdict paths — ``repro serve``, ``stress --online`` —
    consume).  With ``retain=False`` the history stops buffering:
    events are forwarded but not stored and no operation record is
    kept, so memory stays constant regardless of run length.  A
    streaming sink that reads no primitive events says so with a
    ``count_primitive(index)`` attribute that is not ``None``: each
    primitive then costs one call with its index instead of a built
    :class:`PrimitiveEvent`.  Recording calls are serialized by the
    runtime that owns the history (simulation step loop, thread
    runtime's history lock, memory-server process), so the sink
    inherits that mutual exclusion.
    """

    def __init__(self) -> None:
        self.events: List[Any] = []
        self._index = 0
        self._ops: Dict[Tuple[str, int], OperationRecord] = {}
        self._op_order: List[Tuple[str, int]] = []
        self._sink = None
        self._count = None
        self._retain = True
        self.completed_count = 0

    # -- streaming ---------------------------------------------------------

    def stream_to(self, sink, retain: bool = True) -> None:
        """Forward every subsequently recorded event to ``sink``.

        ``retain=False`` additionally disables buffering (see class
        docstring); the query helpers then see nothing recorded after
        this call.
        """
        self._sink = sink
        self._retain = retain
        self._count = (
            None if retain else getattr(sink, "count_primitive", None)
        )

    # -- recording (used by Simulation) ----------------------------------

    def next_index(self) -> int:
        index = self._index
        self._index += 1
        return index

    def record_invocation(
        self, pid: str, op_id: int, op_name: str, args: Tuple[Any, ...]
    ) -> Invocation:
        event = Invocation(self.next_index(), pid, op_id, op_name, args)
        if self._retain:
            key = (pid, op_id)
            self._ops[key] = OperationRecord(
                pid=pid,
                op_id=op_id,
                name=op_name,
                args=args,
                invoke_index=event.index,
            )
            self.events.append(event)
            self._op_order.append(key)
        if self._sink is not None:
            self._sink(event)
        return event

    def record_response(
        self, pid: str, op_id: int, op_name: str, result: Any
    ) -> Response:
        event = Response(self.next_index(), pid, op_id, op_name, result)
        self.completed_count += 1
        if self._retain:
            self.events.append(event)
            record = self._ops[(pid, op_id)]
            record.response_index = event.index
            record.result = result
        if self._sink is not None:
            self._sink(event)
        return event

    def record_primitive(
        self,
        pid: str,
        op_id: int,
        obj_name: str,
        primitive: str,
        args: Tuple[Any, ...],
        result: Any,
    ) -> Optional[PrimitiveEvent]:
        """Record one applied primitive; ``None`` when the sink only
        counts primitives (no event is built)."""
        count = self._count
        if count is not None:
            index = self._index
            self._index = index + 1
            count(index)
            return None
        event = PrimitiveEvent(
            self.next_index(), pid, op_id, obj_name, primitive, args, result
        )
        if self._retain:
            self.events.append(event)
            self._ops[(pid, op_id)].primitives.append(event)
        if self._sink is not None:
            self._sink(event)
        return event

    def record_crash(self, pid: str, op_id: Optional[int]) -> CrashEvent:
        event = CrashEvent(self.next_index(), pid, op_id)
        if self._retain:
            self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        return event

    # -- queries ----------------------------------------------------------

    def operations(
        self,
        pid: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[OperationRecord]:
        """All operations in invocation order, optionally filtered."""
        records = (self._ops[key] for key in self._op_order)
        return [
            record
            for record in records
            if (pid is None or record.pid == pid)
            and (name is None or record.name == name)
        ]

    def operation(self, pid: str, op_id: int) -> OperationRecord:
        return self._ops[(pid, op_id)]

    def complete_operations(
        self, name: Optional[str] = None
    ) -> List[OperationRecord]:
        return [op for op in self.operations(name=name) if op.is_complete]

    def pending_operations(
        self, name: Optional[str] = None
    ) -> List[OperationRecord]:
        return [op for op in self.operations(name=name) if op.is_pending]

    def primitive_events(
        self,
        pid: Optional[str] = None,
        obj_name: Optional[str] = None,
        primitive: Optional[str] = None,
    ) -> List[PrimitiveEvent]:
        return [
            event
            for event in self.events
            if isinstance(event, PrimitiveEvent)
            and (pid is None or event.pid == pid)
            and (obj_name is None or event.obj_name == obj_name)
            and (primitive is None or event.primitive == primitive)
        ]

    def projection(self, pid: str) -> List[Tuple[str, str, Tuple, Any]]:
        """The local view of ``pid``: its primitive events' observable
        content, in order.

        Two executions are indistinguishable to ``pid`` (``alpha ~p
        beta``) exactly when the projections coincide; the leakage
        experiments compare projections of paired executions directly.
        """
        return [
            event.view()
            for event in self.events
            if isinstance(event, PrimitiveEvent) and event.pid == pid
        ]

    @property
    def length(self) -> int:
        return len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterable[Any]:
        return iter(self.events)

    def pretty(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the log (for debugging/examples)."""
        lines = []
        events = self.events if limit is None else self.events[:limit]
        for event in events:
            if isinstance(event, Invocation):
                lines.append(
                    f"{event.index:>5}  {event.pid:<8} invoke   "
                    f"{event.op_name}{event.args!r}"
                )
            elif isinstance(event, Response):
                lines.append(
                    f"{event.index:>5}  {event.pid:<8} response "
                    f"{event.op_name} -> {event.result!r}"
                )
            elif isinstance(event, PrimitiveEvent):
                lines.append(
                    f"{event.index:>5}  {event.pid:<8}   {event.obj_name}."
                    f"{event.primitive}{event.args!r} -> {event.result!r}"
                )
            elif isinstance(event, CrashEvent):
                lines.append(f"{event.index:>5}  {event.pid:<8} CRASH")
        return "\n".join(lines)
