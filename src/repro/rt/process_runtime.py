"""The process backend: shared memory served over message channels.

Each algorithm process runs in its own OS process — true multi-core
parallelism past the GIL — and owns nothing but its operation
generators.  Every shared-memory access crosses a message channel to a
single **memory-server process** that owns the authoritative base
objects and the monotonically-indexed
:class:`~repro.sim.history.History`, in the spirit of
shared-memory-over-network systems (M&M systems, remote memory access).
Each channel is a pair of framed pipes (:class:`Channel`): a message
is one ``os.write`` of a length-prefixed pickle.  In those systems the
cost of an access is one round trip, so the channel does nothing else
per message (``multiprocessing.Connection`` builds a pickler per send
and reads twice per receive).

The two contracts of the model hold by construction:

1. **Primitive atomicity.**  The server applies primitives strictly
   serially, in message-arrival order, through the existing
   :meth:`~repro.memory.base.BaseObject.apply`.  Per-object event order
   in the log therefore *is* true application order — the property the
   audit-exactness oracle relies on.
2. **An order-faithful history.**  Worker channels are FIFO, and every
   worker sends its invocation record before its first primitive
   request and its response record after its last primitive reply.  So
   a recorded real-time precedence (response index below invocation
   index) implies the earlier operation's primitives were all applied
   before any of the later operation's — the linearizability checker
   never sees a constraint that did not hold in the true serialization
   at the server.

**Replicas, not shared state.**  Workers and the server each build
their *own* copy of the object graph from a picklable ``build``
callable.  Worker replicas exist only so algorithm generators can be
constructed and run their local computation; their ``apply`` is never
called — each yielded primitive is shipped by object *name* to the
server, which resolves it against the authoritative replica (lazily
materialised array/matrix cells included) and returns the result.
This is why programs are given as picklable *factories* rather than
closed-over :class:`~repro.sim.process.Op` lists: the worker must be
able to rebuild them on its side of the fork/spawn boundary.

**Faults are schedule decisions.**  Before applying a primitive the
server asks an :class:`~repro.faults.ArrivalInterpreter` over the
optional :class:`~repro.faults.FaultPlan`, which may return any
decision the fuzzer's schedule adversaries emit:

- ``CrashDecision`` — crash the process at its next primitive; the
  pending operation stays pending, exactly like a simulator crash.
  The crashed worker then *blocks* awaiting a verdict: a later
  ``RecoverDecision`` restarts it from a fresh replica (rebuilt via
  the picklable ``build``/program factories; the crashed operation is
  skipped, later operations get fresh op ids), and when the run ends
  without one the server confirms it stays dead.
- ``DelayDecision`` and ``PartitionDecision`` — the interpreter holds
  the request (a delayed one, or any from a severed pid) and later
  hands it back for the server to apply, by the hold-and-release rule
  on the arrival clock that :class:`~repro.faults.ArrivalInterpreter`
  documents (network delay, reorder, a severed-then-healed segment).
- ``DuplicateDecision`` — re-apply the named pid's most recently
  applied primitive and record the second application in the history;
  the worker never sees the duplicate's result.  The history keeps
  matching true application order, so the audit oracle judges what
  the memory actually did.
- ``OmitDecision`` — drop the requester's message: never applied,
  never recorded; the worker abandons the operation (it stays pending
  in the history) and continues with its next one.

Determinism matches the thread backend: values, pads and nonces replay
from the seed; interleavings come from OS scheduling and message
arrival order.  Seeded schedule replay remains the simulator's job.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import select
import struct
import time
import traceback
from multiprocessing.connection import wait as wait_any
from pickle import HIGHEST_PROTOCOL, dumps, loads
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import FAULT_FAMILIES, ArrivalInterpreter, FaultPlan
from repro.memory.array import BitMatrix, RegisterArray
from repro.memory.base import BaseObject
from repro.rt.base import Runtime, WatchdogTimeout
from repro.sim.history import History
from repro.sim.process import Op
from repro.sim.runner import drive_op
from repro.sim.scheduler import (
    CrashDecision,
    DuplicateDecision,
    OmitDecision,
    RecoverDecision,
)

__all__ = [
    "Channel",
    "CrashedByServer",
    "PrimitiveOmitted",
    "ObjectRegistry",
    "PidRef",
    "ProcessRuntime",
    "DEFAULT_WATCHDOG",
]

#: Default seconds without a completed operation before the workers
#: still running are declared hung and the run is torn down.
DEFAULT_WATCHDOG = 60.0


# -- the worker <-> server channel ---------------------------------------------

_HEADER = struct.Struct("<I")
#: First read of a frame; the rest of a longer frame is read exactly.
_READ = 4096


class Channel:
    """One end of a framed duplex channel: a one-way pipe each way.

    A message is a 4-byte length and its pickle, sent with one
    ``os.write`` and read with ``os.read`` into a per-channel buffer.
    This is the whole cost of a primitive's round trip, so it skips
    what ``multiprocessing.Connection`` adds: a fresh pickler (and
    copy of the copyreg dispatch table) per ``send``, two reads per
    ``recv``.  End of file, even mid-frame, raises ``EOFError``.

    The two wrapped ``Connection`` ends own the descriptors: they close
    them, and they carry them across a ``spawn`` boundary when the
    channel is pickled.  The server reads one frame per readiness
    event, which is exact because a worker never has two frames in
    flight: it waits for the reply to each request, and ``done`` is
    its last frame.
    """

    def __init__(self, reader, writer) -> None:
        self._ends = (reader, writer)
        self._rfd = reader.fileno()
        self._wfd = writer.fileno()
        self._buf = b""

    def __reduce__(self):
        return Channel, self._ends

    def fileno(self) -> int:
        return self._rfd

    def send(self, obj: Any) -> None:
        data = dumps(obj, HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(data)) + data
        sent = os.write(self._wfd, frame)
        if sent < len(frame):  # a frame larger than the pipe buffer
            view = memoryview(frame)
            while sent < len(frame):
                sent += os.write(self._wfd, view[sent:])

    def recv(self) -> Any:
        buf = self._buf
        while len(buf) < _HEADER.size:
            chunk = os.read(self._rfd, _READ)
            if not chunk:
                raise EOFError
            buf += chunk
        end = _HEADER.size + _HEADER.unpack_from(buf)[0]
        if len(buf) < end:
            parts, have = [buf], len(buf)
            while have < end:
                chunk = os.read(self._rfd, end - have)
                if not chunk:
                    raise EOFError
                parts.append(chunk)
                have += len(chunk)
            buf = b"".join(parts)
        self._buf = buf[end:]
        return loads(buf[_HEADER.size:end])

    def close(self) -> None:
        for end in self._ends:
            end.close()


def channel_pair(ctx) -> Tuple[Channel, Channel]:
    """Two connected :class:`Channel` ends built from ``ctx``'s pipes."""
    up_reader, up_writer = ctx.Pipe(duplex=False)
    down_reader, down_writer = ctx.Pipe(duplex=False)
    return Channel(down_reader, up_writer), Channel(up_reader, down_writer)


class CrashedByServer(Exception):
    """The memory server crashed this process mid-operation."""


class PrimitiveOmitted(Exception):
    """The memory server dropped this primitive request (omission
    fault): the worker's view of a timed-out message.  The in-flight
    operation is abandoned — pending forever in the history — and the
    worker continues with its next operation."""


# -- the server's object registry ---------------------------------------------

_MATRIX_CELL = re.compile(r"^(.*)\[(\d+)\]\[(\d+)\]$")
_ARRAY_CELL = re.compile(r"^(.*)\[(\d+)\]$")


class ObjectRegistry:
    """Resolve primitive targets by name on the authoritative replica.

    Objects are discovered by walking the built system's attribute
    graph (into ``repro``-defined instances and plain containers).
    Array and matrix cells are materialised lazily on the paper's
    model, so ``areg.V[3]`` resolves through its parent container on
    first use; every resolution is cached.
    """

    def __init__(self, root: Any) -> None:
        self._objects: Dict[str, Any] = {}
        self._arrays: Dict[str, RegisterArray] = {}
        self._matrices: Dict[str, BitMatrix] = {}
        self._walk(root)

    def _walk(self, root: Any) -> None:
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, BaseObject):
                self._objects.setdefault(node.name, node)
            elif isinstance(node, RegisterArray):
                self._arrays.setdefault(node.name, node)
            elif isinstance(node, BitMatrix):
                self._matrices.setdefault(node.name, node)
            if isinstance(node, dict):
                stack.extend(node.values())
            elif isinstance(node, (list, tuple, set, frozenset)):
                stack.extend(node)
            elif type(node).__module__.startswith("repro"):
                stack.extend(getattr(node, "__dict__", {}).values())
                for klass in type(node).__mro__:
                    slots = getattr(klass, "__slots__", ())
                    for slot in (slots,) if isinstance(slots, str) else slots:
                        if hasattr(node, slot):
                            stack.append(getattr(node, slot))

    def resolve(self, name: str) -> Any:
        obj = self._objects.get(name)
        if obj is not None:
            return obj
        match = _MATRIX_CELL.match(name)
        if match and match.group(1) in self._matrices:
            matrix = self._matrices[match.group(1)]
            cell = matrix[int(match.group(2)), int(match.group(3))]
            self._objects[name] = cell
            return cell
        match = _ARRAY_CELL.match(name)
        if match and match.group(1) in self._arrays:
            cell = self._arrays[match.group(1)][int(match.group(2))]
            self._objects[name] = cell
            return cell
        raise KeyError(
            f"memory server owns no object named {name!r} "
            f"(known: {sorted(self._objects) + sorted(self._arrays) + sorted(self._matrices)})"
        )


# -- worker process -----------------------------------------------------------


class PidRef:
    """Minimal process reference: handle factories consume only ``pid``."""

    __slots__ = ("pid",)

    def __init__(self, pid: str) -> None:
        self.pid = pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PidRef({self.pid!r})"


def _worker_main(
    conn,
    pid: str,
    build,
    build_args: Tuple[Any, ...],
    spec: Dict[str, Any],
    duration: Optional[float],
    record_latency: bool,
    barrier,
) -> None:
    """One algorithm process: build the replica, stream the protocol.

    One-way records (invocation, response) are buffered and piggybacked
    onto the next primitive request (or the final ``done``), so the
    channel FIFO preserves their order while each primitive costs a
    single round-trip.
    """
    latencies: List[Tuple[str, str, float]] = []
    error: Optional[str] = None
    outbox: List[Tuple[Any, ...]] = []

    def apply_over_channel(pending):
        outbox.append(
            ("prim", pending.obj.name, pending.primitive, pending.args)
        )
        conn.send(outbox)  # pickled at once: safe to clear
        del outbox[:]
        reply = conn.recv()
        if reply[0] == "ok":
            return reply[1]
        if reply[0] == "crash":
            raise CrashedByServer(pid)
        if reply[0] == "omit":
            raise PrimitiveOmitted(pid)
        raise RuntimeError(f"memory server rejected a primitive: {reply[1]}")

    try:
        system = build(*build_args)
        program: List[Op] = []
        source = None
        budget = spec.get("max_ops")
        factory = spec["factory"]
        args = spec.get("args", ())
        if spec["kind"] == "program":
            program = list(factory(system, pid, *args))
        else:
            source = factory(system, pid, *args)
        barrier.wait(timeout=DEFAULT_WATCHDOG)
        deadline = None if duration is None else time.monotonic() + duration
        op_id = 0
        next_in_program = 0
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                break
            if next_in_program < len(program):
                op = program[next_in_program]
                next_in_program += 1
            elif source is not None:
                if budget is not None:
                    if budget <= 0:
                        break
                    budget -= 1
                op = source()
            else:
                break
            if op is None:
                break
            outbox.append(("inv", op_id, op.name, op.args))
            start = time.perf_counter() if record_latency else 0.0
            try:
                result = drive_op(pid, op, apply_over_channel)
            except CrashedByServer:
                # Block until the server either recovers this process
                # or (when the run winds down) confirms it stays dead.
                # On recovery the replica and the program are rebuilt
                # from their picklable factories — a genuine restart,
                # not a resumed in-memory object.  The crashed
                # operation is skipped (its history record stays
                # pending) and later operations take fresh op ids.
                verdict = conn.recv()
                if verdict[0] != "recover":
                    break
                system = build(*build_args)
                if spec["kind"] == "program":
                    program = list(factory(system, pid, *args))
                else:
                    source = factory(system, pid, *args)
                op_id += 1
                continue
            except PrimitiveOmitted:
                # The dropped request surfaced as a timeout: abandon
                # the operation (pending forever) and move on.
                op_id += 1
                continue
            outbox.append(("resp", op_id, op.name, result))
            if record_latency:
                latencies.append((pid, op.name, time.perf_counter() - start))
            op_id += 1
    except BaseException:  # noqa: BLE001 - forwarded to the parent
        error = traceback.format_exc()
    finally:
        try:
            outbox.append(("done", latencies, error))
            conn.send(outbox)
            conn.close()
        except OSError:  # pragma: no cover - channel already torn down
            pass


# -- memory-server process ----------------------------------------------------


def conn_wait(poller) -> List[Tuple[int, int]]:
    """Block until a channel registered with ``poller`` (a
    ``select.poll`` object) is readable or hung up; return the ready
    ``(fd, events)`` pairs.  This is the memory server's only blocking
    wait, kept module-level so a tracer can time it."""
    return poller.poll()


def _server_main(
    out_conn,
    conns_by_pid: Dict[str, Any],
    build,
    build_args: Tuple[Any, ...],
    faults: Optional[FaultPlan],
    event_sink=None,
    retain_history: bool = True,
    progress=None,
) -> None:
    """Own the objects and the history; serve primitives serially.

    ``event_sink`` (e.g. a :class:`~repro.sim.event_log.JsonlEventSink`)
    receives every history event as it is recorded — the streaming seam
    for online verification.  With ``retain_history=False`` the history
    stops buffering (bounded server memory; the final payload ships
    only counters) — the event stream is then the sole record of the
    run.  A server that dies mid-run leaves the sink's log without its
    ``end`` marker, which consumers read as truncation (PARTIAL).
    ``progress`` (a shared ``RawValue``) counts recorded responses: the
    parent's watchdog reads it, so the server itself keeps no clock.
    """
    history = History()
    if event_sink is not None or not retain_history:
        history.stream_to(event_sink, retain=retain_history)
    latencies: List[Tuple[str, str, float]] = []
    errors: List[Tuple[str, str]] = []
    crashed: List[str] = []
    steps = 0
    try:
        registry = ObjectRegistry(build(*build_args))
        active: Dict[Any, str] = {
            conn: pid for pid, conn in conns_by_pid.items()
        }
        # One poller registers the ``active`` channels; it is rebuilt
        # only after ``activate``/``deactivate`` changed that set, not on
        # every pass.  ``by_fd`` maps its ready descriptors back.
        poller = None
        by_fd: Dict[int, Any] = {}
        active_stale = True
        current_op: Dict[str, int] = {}
        interpreter = None
        if faults is not None:
            families = ProcessRuntime.fault_families
            interpreter = ArrivalInterpreter(faults, families)
        # Crashed workers blocked awaiting a recover/dead verdict:
        # pid -> conn (removed from ``active`` while waiting).
        awaiting: Dict[str, Any] = {}
        # Most recent applied primitive per pid (op_id, obj_name,
        # primitive, args): what a DuplicateDecision re-delivers.
        last_applied: Dict[str, Tuple[int, str, str, Tuple[Any, ...]]] = {}

        def activate(conn, pid):
            nonlocal active_stale
            active[conn] = pid
            active_stale = True

        def deactivate(conn):
            nonlocal active_stale
            del active[conn]
            active_stale = True

        def apply_prim(conn, pid, message):
            nonlocal steps
            _, obj_name, primitive, args = message
            try:
                result = registry.resolve(obj_name).apply(primitive, args)
            except Exception:  # noqa: BLE001 - reported to the worker
                conn.send(("err", traceback.format_exc()))
                return
            # Reply, then record: the worker need not wait for history
            # bookkeeping or log encoding.  The loop records before it
            # reads the next message, so the worker's response and next
            # request still get higher indices.
            conn.send(("ok", result))
            steps += 1
            op_id = current_op.get(pid, 0)
            history.record_primitive(
                pid, op_id, obj_name, primitive, args, result
            )
            last_applied[pid] = (op_id, obj_name, primitive, args)

        def apply_duplicate(dpid):
            # Re-deliver dpid's most recent applied message.  The second
            # application is recorded under the original operation — the
            # per-object log keeps matching true application order — and
            # no reply is sent (the worker already has its result).
            nonlocal steps
            entry = last_applied.get(dpid)
            if entry is None:
                return
            op_id, obj_name, primitive, args = entry
            try:
                result = registry.resolve(obj_name).apply(primitive, args)
            except Exception:  # noqa: BLE001 - a dud duplicate is dropped
                return
            steps += 1
            history.record_primitive(
                dpid, op_id, obj_name, primitive, args, result
            )

        def recover_pid(rpid):
            # Restart a crashed-and-waiting worker; nominations of pids
            # that are not waiting are ignored (alive, or never crashed).
            rconn = awaiting.pop(rpid, None)
            if rconn is None:
                return
            rconn.send(("recover",))
            activate(rconn, rpid)

        def handle_prim(conn, pid, message):
            # The interpreter returns crash and omit only for the
            # requester itself; recover and dup act on their target,
            # then this request proceeds unless the interpreter held it.
            if interpreter is None:
                apply_prim(conn, pid, message)
                return
            decision, held = interpreter.admit(
                pid, message[1], message[2], (conn, pid, message)
            )
            if isinstance(decision, CrashDecision):
                history.record_crash(pid, current_op.get(pid))
                crashed.append(pid)
                conn.send(("crash",))
                deactivate(conn)
                awaiting[pid] = conn
                return
            if isinstance(decision, OmitDecision):
                conn.send(("omit",))
                return
            if isinstance(decision, RecoverDecision):
                recover_pid(decision.pid)
            elif isinstance(decision, DuplicateDecision):
                apply_duplicate(decision.pid)
            if not held:
                apply_prim(conn, pid, message)

        def handle_batch(conn, pid, batch) -> None:
            for message in batch:
                tag = message[0]
                if tag == "prim":
                    handle_prim(conn, pid, message)
                elif tag == "inv":
                    _, op_id, name, args = message
                    current_op[pid] = op_id
                    history.record_invocation(pid, op_id, name, args)
                elif tag == "resp":
                    _, op_id, name, result = message
                    history.record_response(pid, op_id, name, result)
                    if progress is not None:
                        progress.value += 1
                elif tag == "done":
                    _, lats, err = message
                    latencies.extend(lats)
                    if err is not None:
                        errors.append((pid, err))
                    deactivate(conn)
                    return

        # The hot loop.  ``conn_wait`` blocks once per pass on the
        # persistent poller, and each ready channel then yields exactly
        # one batch: a worker has at most one request in flight, so a
        # second read of the same channel would find nothing that the
        # next pass does not.  Crashed workers sit in ``awaiting``
        # outside the poller; once every live worker finished, they are
        # told they stay dead and rejoin only to deliver their final
        # batch.  Before each wait the interpreter hands back the held
        # requests now due; a held worker stays in ``active``, so
        # ``len(active)`` is its count of live workers.
        while active or awaiting:
            if not active:
                for rpid in list(awaiting):
                    rconn = awaiting.pop(rpid)
                    try:
                        rconn.send(("dead",))
                    except OSError:  # pragma: no cover - worker gone
                        continue
                    activate(rconn, rpid)
                if not active:
                    break
            if interpreter is not None and interpreter.held:
                for request in interpreter.release(len(active)):
                    apply_prim(*request)
            if active_stale:
                poller = select.poll()
                by_fd = {conn.fileno(): conn for conn in active}
                for fd in by_fd:
                    poller.register(fd, select.POLLIN)
                active_stale = False
            for fd, _ in conn_wait(poller):
                conn = by_fd[fd]
                pid = active.get(conn)
                if pid is None:  # left ``active`` earlier in this pass
                    continue
                try:
                    batch = conn.recv()
                except EOFError:
                    errors.append((pid, "channel closed before 'done'"))
                    deactivate(conn)
                    continue
                handle_batch(conn, pid, batch)
        if event_sink is not None:
            event_sink.close()
        out_conn.send(("ok", {
            "history": history,
            "steps": steps,
            "latencies": latencies,
            "crashed": crashed,
            "errors": errors,
            "completed": history.completed_count,
        }))
    except BaseException:  # noqa: BLE001 - forwarded to the parent
        try:
            out_conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent gone
            pass
    finally:
        out_conn.close()


# -- the runtime --------------------------------------------------------------


class ProcessRuntime(Runtime):
    """Run each algorithm process in its own OS process.

    ``build(*build_args)`` must be picklable and deterministic: it is
    called once in the server (the authoritative objects) and once per
    worker (the local replica generators run against).  Programs are
    registered as picklable factories via :meth:`add_program_factory`
    (a fixed operation list) or :meth:`add_source_factory` (an
    on-demand operation source for duration-bounded runs).
    """

    kind = "process"
    #: The fault families this runtime carries out: all of them, at the
    #: memory server.
    fault_families = FAULT_FAMILIES

    def __init__(
        self,
        build,
        build_args: Tuple[Any, ...] = (),
        *,
        faults: Optional[FaultPlan] = None,
        record_latency: bool = True,
        join_watchdog: Optional[float] = DEFAULT_WATCHDOG,
        start_method: Optional[str] = None,
        event_log: Optional[Any] = None,
        retain_history: bool = True,
    ) -> None:
        self._build = build
        self._build_args = tuple(build_args)
        self.faults = faults
        self.record_latency = record_latency
        self.join_watchdog = join_watchdog
        self._start_method = start_method
        # ``event_log`` streams every server-side history event to a
        # JSONL file (a path here becomes a lazily-opened sink pickled
        # into the server); ``retain_history=False`` additionally stops
        # the server buffering the history — bounded memory for online
        # runs, at the price of an empty ``history`` afterwards.
        if isinstance(event_log, str):
            from repro.sim.event_log import JsonlEventSink

            event_log = JsonlEventSink(event_log)
        self.event_log = event_log
        self.retain_history = retain_history
        self._history = History()
        self.completed_count = 0
        self.processes: Dict[str, PidRef] = {}
        self._specs: Dict[str, Dict[str, Any]] = {}
        self.latencies: List[Tuple[str, str, float]] = []
        self.crashed: Tuple[str, ...] = ()
        self.elapsed = 0.0
        self._steps = 0

    # -- the runtime interface --------------------------------------------

    def spawn(self, pid: str) -> PidRef:
        if pid in self.processes:
            raise ValueError(f"duplicate pid {pid!r}")
        ref = PidRef(pid)
        self.processes[pid] = ref
        return ref

    def add_program(self, pid: str, ops: List[Op]) -> PidRef:
        raise TypeError(
            "ProcessRuntime cannot ship closed-over Op lists across the "
            "process boundary; register a picklable factory with "
            "add_program_factory(pid, factory) or "
            "add_source_factory(pid, factory) instead"
        )

    def add_program_factory(
        self, pid: str, factory, args: Tuple[Any, ...] = ()
    ) -> PidRef:
        """``factory(system, pid, *args)`` -> list of Ops, built worker-side."""
        ref = self.processes.get(pid) or self.spawn(pid)
        if pid in self._specs:
            raise ValueError(f"process {pid!r} already has a program")
        self._specs[pid] = {
            "kind": "program", "factory": factory, "args": tuple(args),
        }
        return ref

    def add_source_factory(
        self,
        pid: str,
        factory,
        args: Tuple[Any, ...] = (),
        max_ops: Optional[int] = None,
    ) -> PidRef:
        """``factory(system, pid, *args)`` -> nullary callable yielding Ops."""
        ref = self.processes.get(pid) or self.spawn(pid)
        if pid in self._specs:
            raise ValueError(f"process {pid!r} already has a program")
        self._specs[pid] = {
            "kind": "source", "factory": factory, "args": tuple(args),
            "max_ops": max_ops,
        }
        return ref

    @property
    def history(self) -> History:
        return self._history

    @property
    def steps_taken(self) -> int:
        return self._steps

    # -- execution ---------------------------------------------------------

    def _context(self):
        method = self._start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else None
        return multiprocessing.get_context(method)

    def run(self, duration: Optional[float] = None) -> History:
        """Spawn the memory server and one worker per process; collect.

        Joins are bounded by progress, not by the clock: once a whole
        ``join_watchdog``-long wait passes with no operation completed,
        the workers still running are terminated and reported by pid in
        a :class:`~repro.rt.base.WatchdogTimeout` instead of hanging
        the harness.  Pass ``join_watchdog=None`` for unbounded joins.
        """
        pids = [pid for pid in self.processes if pid in self._specs]
        if not pids:
            return self._history
        ctx = self._context()
        barrier = ctx.Barrier(len(pids) + 1)
        server_conns: Dict[str, Any] = {}
        worker_conns: Dict[str, Any] = {}
        workers: Dict[str, Any] = {}
        for pid in pids:
            worker_end, server_end = channel_pair(ctx)
            worker_conns[pid] = worker_end
            server_conns[pid] = server_end
            workers[pid] = ctx.Process(
                target=_worker_main,
                args=(
                    worker_end, pid, self._build, self._build_args,
                    self._specs[pid], duration, self.record_latency, barrier,
                ),
                name=f"rt-{pid}",
                daemon=True,
            )
        parent_conn, server_out = ctx.Pipe(duplex=False)
        progress = ctx.RawValue("Q", 0)
        server = ctx.Process(
            target=_server_main,
            args=(
                server_out, server_conns, self._build, self._build_args,
                self.faults, self.event_log, self.retain_history, progress,
            ),
            name="rt-memory-server",
            daemon=True,
        )
        everyone = [server] + list(workers.values())
        try:
            server.start()
            for worker in workers.values():
                worker.start()
            for conn in server_conns.values():
                conn.close()
            for conn in worker_conns.values():
                conn.close()
            server_out.close()
            try:
                barrier.wait(timeout=self.join_watchdog or DEFAULT_WATCHDOG)
            except Exception as exc:
                raise RuntimeError(
                    "process runtime: workers failed to start "
                    f"({sorted(pid for pid, w in workers.items() if not w.is_alive())} dead)"
                ) from exc
            started = time.perf_counter()
            watchdog = self.join_watchdog
            # Multiplex worker exits with the server's control pipe, so
            # a server-side failure (e.g. an unresolvable object) is
            # surfaced immediately instead of after the full watchdog.
            # A wait that times out re-arms while the server's response
            # count moved: a slow run that keeps completing operations
            # is never cut.
            final = None
            pending = {w.sentinel: pid for pid, w in workers.items()}
            seen = progress.value
            while pending:
                waitees = list(pending)
                if final is None:
                    waitees.append(parent_conn)
                ready = wait_any(waitees, timeout=watchdog)
                if not ready:
                    if progress.value != seen:
                        seen = progress.value
                        continue
                    self.elapsed = time.perf_counter() - started
                    raise WatchdogTimeout(
                        f"process runtime: worker(s) "
                        f"{sorted(pending.values())} completed no "
                        f"operation for {watchdog:g}s; terminating"
                    )
                for item in ready:
                    if item is parent_conn:
                        final = parent_conn.recv()
                        if final[0] != "ok":
                            raise RuntimeError(
                                "process runtime: memory server failed:\n"
                                f"{final[1]}"
                            )
                    else:
                        pending.pop(item, None)
            self.elapsed = time.perf_counter() - started
            for worker in workers.values():
                worker.join(5)
            failed = sorted(
                pid for pid, worker in workers.items() if worker.exitcode
            )
            if failed:
                raise RuntimeError(
                    f"process runtime: worker(s) {failed} exited abnormally"
                )
            if final is None:
                if not parent_conn.poll(watchdog or DEFAULT_WATCHDOG):
                    raise RuntimeError(
                        "process runtime: memory server produced no final "
                        "payload within the watchdog"
                    )
                final = parent_conn.recv()
            verdict, payload = final
            server.join(watchdog or DEFAULT_WATCHDOG)
            if verdict != "ok":
                raise RuntimeError(
                    f"process runtime: memory server failed:\n{payload}"
                )
            if payload["errors"]:
                pid, first = payload["errors"][0]
                raise RuntimeError(
                    f"process runtime: process {pid!r} failed "
                    f"({len(payload['errors'])} error(s) total):\n{first}"
                )
            self._history = payload["history"]
            self._steps = payload["steps"]
            self.latencies = payload["latencies"]
            self.crashed = tuple(payload["crashed"])
            self.completed_count = payload.get(
                "completed", self._history.completed_count
            )
            return self._history
        finally:
            for proc in everyone:
                if proc.is_alive():
                    proc.terminate()
            for proc in everyone:
                if proc.pid is not None:
                    proc.join(5)
            parent_conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessRuntime(processes={len(self.processes)}, "
            f"steps={self._steps})"
        )
