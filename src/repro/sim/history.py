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


class Tap:
    """Several taps as one.

    A *tap* is what :meth:`History.stream_to` feeds: a plain callable,
    which takes every event, or an object with ``reads`` (the names of
    the objects whose primitive events it consumes), ``feed(event)``
    and ``count(index)`` for a primitive it skips.  A joint tap reads
    the union of its members' objects.  One routing table, built here,
    sends a primitive to the members that read its object and counts
    it into the others; any other event goes to every member.  A lone
    member is its own router.  ``None`` members are left out; with
    none, ``feed`` is ``None`` and ``count`` does nothing.
    """

    def __init__(self, members: Iterable[Any]) -> None:
        self.members = [m for m in members if m is not None]
        reads = [getattr(m, "reads", None) for m in self.members]
        feeds = [getattr(m, "feed", m) for m in self.members]
        self.reads = None if None in reads else frozenset().union(*reads)

        def route(name: Any) -> Tuple[Any, Any]:
            """Feed ``name``'s primitives to the members that read it,
            count them into the others."""
            return (
                _fan([f for f, r in zip(feeds, reads)
                      if r is None or name in r]),
                _fan([m.count for m, r in zip(self.members, reads)
                      if r is not None and name not in r]),
            )

        table = {name: route(name) for r in reads if r for name in r}
        other = route(None)
        self.count = other[1]
        self.feed = feeds[0] if feeds else None
        if len(feeds) > 1:
            fan = _fan(feeds)

            def feed(event: Any) -> None:
                if type(event) is PrimitiveEvent:
                    fed, skipped = table.get(event.obj_name, other)
                    fed(event)
                    skipped(event.index)
                else:
                    fan(event)

            self.feed = feed


def _skip(arg: Any) -> None:
    """Do nothing (module-level, so a history holding it pickles)."""


def _fan(calls: List[Any]) -> Any:
    """``calls`` as one callable: :func:`_skip` given none, the lone
    call itself, else one that makes each call in turn."""
    if not calls:
        return _skip
    if len(calls) == 1:
        return calls[0]

    def fan(arg: Any) -> None:
        for call in calls:
            call(arg)

    return fan


class History:
    """Append-only event log with query helpers.

    A :class:`Tap` can be attached with :meth:`stream_to`: every
    recorded event is handed to it as it happens (the streaming seam
    the online verdict paths — ``repro serve``, ``stress --online`` —
    consume).  With ``retain=False`` the history stops buffering:
    events are forwarded but not stored and no operation record is
    kept, so memory stays constant regardless of run length.  A
    streaming history then builds a :class:`PrimitiveEvent` only for an
    object the tap reads, and hands the tap's ``count`` the index of
    every other primitive; a plain callable reads every object, and no
    tap reads none.  Recording calls are serialized by the runtime
    that owns the history (simulation step loop, thread runtime's
    history lock, memory-server process), so the tap inherits that
    mutual exclusion.
    """

    def __init__(self) -> None:
        self.events: List[Any] = []
        self._index = 0
        self._ops: Dict[Tuple[str, int], OperationRecord] = {}
        self._op_order: List[Tuple[str, int]] = []
        self._tap = None
        self._sink = None
        self._reads = None
        self._count = None
        self._retain = True
        self.completed_count = 0

    # -- streaming ---------------------------------------------------------

    def stream_to(self, tap, retain: bool = True) -> None:
        """Forward every subsequently recorded event to ``tap``.

        ``retain=False`` additionally disables buffering (see class
        docstring); the query helpers then see nothing recorded after
        this call, and a primitive on an object the tap does not read
        is only counted.
        """
        self._tap = tap
        if tap is None:
            tap = Tap(())
        self._sink = getattr(tap, "feed", tap)
        self._retain = retain
        self._reads = None if retain else getattr(tap, "reads", None)
        self._count = None if self._reads is None else tap.count

    def close_stream(self) -> Any:
        """End the stream after a clean run: detach the tap, call its
        ``close`` if it has one, and return what that returned (a
        validator's verdict; ``None`` otherwise).  The history then
        streams nowhere and pickles, which a tap's closures do not."""
        tap = self._tap
        self.stream_to(None, retain=self._retain)
        close = getattr(tap, "close", None)
        return None if close is None else close()

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
        """Record one applied primitive; ``None`` when no event is
        built (a streaming tap that does not read ``obj_name``)."""
        count = self._count
        if count is not None and obj_name not in self._reads:
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
