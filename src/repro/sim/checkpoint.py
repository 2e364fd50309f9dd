"""Lightweight fork/checkpoint of scheduler-visible simulation state.

The exhaustive explorer used to reach every schedule-tree node by
replaying its whole pid prefix against a fresh system from ``factory()``
-- cost O(nodes x depth).  This module eliminates the replay: a
:class:`SimulationCheckpointer` captures the scheduler-visible state of a
*live* simulation (shared-object contents, per-process program counters,
pending primitives, the history high-water mark) and restores it in
place, so a depth-first search backtracks in O(state size) instead of
O(depth) full re-executions.

Two obstacles shape the design:

1. **Generators are not copyable.**  Algorithm operations are Python
   generators; CPython cannot snapshot a generator frame.  But in this
   simulator an operation is a *deterministic function of the primitive
   results it was sent* (all shared access goes through yielded
   primitives; local state lives in per-process handles).  The runner
   therefore logs every result sent into the current operation
   (``Process._replay_log``), and a restore rebuilds the generator by
   restarting the operation and re-sending the logged results -- cost
   bounded by the primitives of the *current* operation, not the depth.

2. **Object identity is load-bearing.**  Generators hold references to
   the shared objects they operate on, so restore must mutate object
   state *in place* rather than swap in copies.  The :class:`StateVault`
   adopts every reachable ``repro.*`` instance (shared registers, pads,
   nonce sources, per-process handles) and restores each adopted
   object's ``__dict__`` while preserving references between adopted
   objects.  Objects first seen *after* a checkpoint was taken are
   rolled back to their birth state, which makes lazily materialised
   registers (``RegisterArray``/``BitMatrix`` cells) behave exactly like
   the paper's infinitely pre-allocated registers.

Restoring a mid-operation process is a two-phase dance: local code may
read handle state *at operation start* (e.g. a reader consulting
``prev_sn``), so the vault is first rolled back to the operation-start
baseline recorded when the invocation step ran, the generator is
re-driven (repeating the original local assignments), and only then is
the vault restored to the checkpoint itself.  Because re-driving repeats
the original computation, the two restores converge to the checkpoint
state with every generator's internal frame correct.

Classes may opt attributes out of snapshot/restore with a
``_vault_exclude`` tuple: pure memo caches (lazy register cells, pad
masks) are excluded so that materialisation is monotone and
identity-stable across backtracks.

Typical use (the model checker, ``repro.mc``)::

    ckpt = SimulationCheckpointer(sim, roots=[context])
    mark = ckpt.capture()
    sim.step_process("a")
    ...
    ckpt.restore(mark)        # back to the captured state, in place
"""

from __future__ import annotations

import copy
import enum
import random
import types
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.nonce import NonceSource
from repro.sim.history import History
from repro.sim.process import Op, Process, ProcessState
from repro.sim.runner import Simulation

_ATOMS = (str, bytes, int, float, bool, type(None))

# Exact types whose instances are immutable: snapshot/restore may share
# them instead of deep-copying (subclasses could be mutable, hence the
# exact-type check at use sites).
_ATOMIC_TYPES = frozenset(
    (str, bytes, int, float, bool, complex, type(None))
)


class _RngState:
    """Snapshot of a ``random.Random``: its (immutable) state vector.

    ``getstate``/``setstate`` round-trips are an order of magnitude
    cheaper than deep-copying the generator object, and restoring via
    ``setstate`` mutates the *existing* RNG in place, preserving
    identity for any code holding a reference to it.
    """

    __slots__ = ("state",)

    def __init__(self, state: Any) -> None:
        self.state = state


class CheckpointError(RuntimeError):
    """A simulation state cannot be captured or restored."""


def _excluded(cls: type) -> Tuple[str, ...]:
    return tuple(getattr(cls, "_vault_exclude", ()))


def _is_frozen_dataclass(value: Any) -> bool:
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and params.frozen


class StateVault:
    """Identity-preserving snapshot/restore of all reachable repro state.

    The vault *adopts* every mutable ``repro.*`` instance reachable from
    the given roots (plus process programs and pending primitives):
    shared base objects, auditable-object containers, per-process
    handles, pads and nonce sources.  ``snapshot()`` returns an opaque
    state vector; ``restore(snap)`` writes it back into the same
    instances, so references held by live generators stay valid.

    Frozen dataclasses (``RWord``, events) are immutable values, not
    state holders, and are never adopted; :class:`Process`,
    :class:`Simulation`, :class:`History` and :class:`Op` are managed by
    the :class:`SimulationCheckpointer` instead.
    """

    def __init__(self, sim: Simulation, roots: List[Any]) -> None:
        self.sim = sim
        self._roots = list(roots)
        self._objects: List[Any] = []
        self._ids: Dict[int, int] = {}
        self._birth: List[Dict[str, Any]] = []
        self._birth_canon: List[Optional[Tuple]] = []
        self._volatile: List[int] = []
        self.adopt_new()

    # -- discovery ---------------------------------------------------------

    def index_of(self, obj: Any) -> Optional[int]:
        return self._ids.get(id(obj))

    def adopt(self, obj: Any) -> int:
        """Track one instance (birth state = its state right now)."""
        idx = self._ids.get(id(obj))
        if idx is None:
            idx = self._register(obj)
            self._birth[idx] = self._snap_one(obj, self._memo())
        return idx

    def _register(self, obj: Any) -> int:
        idx = len(self._objects)
        self._objects.append(obj)
        self._ids[id(obj)] = idx
        self._birth.append({})
        self._birth_canon.append(None)
        if isinstance(obj, NonceSource):
            # Nonce draws happen in *local* computation, so shared nonce
            # sources are the one piece of state the independence
            # relation must watch outside primitives (repro.mc).
            self._volatile.append(idx)
        return idx

    def _adoptable(self, value: Any) -> bool:
        cls = type(value)
        if isinstance(value, type) or not hasattr(value, "__dict__"):
            return False
        if not getattr(cls, "__module__", "").startswith("repro."):
            return False
        if isinstance(value, (Simulation, Process, History, Op)):
            return False
        if _is_frozen_dataclass(value):
            return False
        return True

    def adopt_new(self) -> None:
        """Walk the object graph and adopt instances not yet tracked.

        Called before every snapshot, so anything the execution
        materialises (lazy register cells, fresh handles) is adopted
        while still in its birth state -- new objects are only ever
        created by local computation, whose mutations land one step
        later, after the next checkpoint.
        """
        fresh: List[Any] = []
        seen: set = set()
        stack: List[Any] = list(self._roots)
        for process in self.sim.processes.values():
            stack.append(process._program)
            if process.pending is not None:
                stack.append(process.pending)
        while stack:
            value = stack.pop()
            if isinstance(value, _ATOMS):
                continue
            vid = id(value)
            if vid in seen:
                continue
            seen.add(vid)
            if isinstance(value, (Simulation, History, Process)):
                # Runner-managed state: the checkpointer handles these
                # directly (histories are truncated, process control
                # state is marked), and walking into them would drag
                # the ever-growing event log into the vault.  Process
                # programs and pendings are seeded explicitly above.
                continue
            if isinstance(value, enum.Enum):
                continue
            if isinstance(value, dict):
                stack.extend(value.values())
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
            elif isinstance(value, (set, frozenset)):
                # Deterministic walk order => deterministic adoption
                # indices across interpreter processes (parallel
                # frontier workers rebuild the same vault).
                stack.extend(sorted(value, key=repr))
            elif isinstance(value, Op):
                stack.append(value.factory)
                stack.append(value.args)
            elif isinstance(value, types.MethodType):
                stack.append(value.__self__)
                stack.append(value.__func__)
            elif isinstance(value, types.FunctionType):
                for cell in value.__closure__ or ():
                    stack.append(cell.cell_contents)
            elif self._adoptable(value):
                if vid not in self._ids:
                    self._register(value)
                    fresh.append(value)
                # Walk every attribute, including _vault_exclude ones:
                # exclusion applies to snapshots, not to discovery.
                stack.extend(value.__dict__.values())
            elif hasattr(value, "__dict__"):
                # Frozen dataclasses and foreign containers may still
                # reference adoptable state.
                stack.extend(value.__dict__.values())
        if fresh:
            memo = self._memo()
            for value in fresh:
                idx = self._ids[id(value)]
                self._birth[idx] = self._snap_one(value, memo)

    # -- snapshot / restore ------------------------------------------------

    def _memo(self) -> Dict[int, Any]:
        """Deepcopy memo that preserves adopted and runner identities."""
        memo: Dict[int, Any] = {id(obj): obj for obj in self._objects}
        memo[id(self.sim)] = self.sim
        memo[id(self.sim.history)] = self.sim.history
        for process in self.sim.processes.values():
            memo[id(process)] = process
        return memo

    def _snap_one(self, obj: Any, memo: Dict[int, Any]) -> Dict[str, Any]:
        drop = _excluded(type(obj))
        snap: Dict[str, Any] = {}
        for key, value in obj.__dict__.items():
            if key in drop:
                continue
            if value.__class__ in _ATOMIC_TYPES:
                snap[key] = value
            elif value.__class__ is random.Random:
                snap[key] = _RngState(value.getstate())
            else:
                snap[key] = copy.deepcopy(value, memo)
        return snap

    def snapshot(self) -> List[Dict[str, Any]]:
        """The current state of every adopted object (opaque)."""
        self.adopt_new()
        memo = self._memo()
        return [self._snap_one(obj, memo) for obj in self._objects]

    def restore(self, snap: List[Dict[str, Any]]) -> None:
        """Write a snapshot back into the adopted instances, in place.

        Objects adopted after the snapshot was taken are rolled back to
        their birth state, so post-checkpoint materialisations vanish
        semantically (their state reverts to the initial value).
        """
        memo = self._memo()
        for idx, obj in enumerate(self._objects):
            target = snap[idx] if idx < len(snap) else self._birth[idx]
            drop = _excluded(type(obj))
            state = obj.__dict__
            for key in [k for k in state if k not in drop]:
                if key not in target:
                    del state[key]
            for key, value in target.items():
                if value.__class__ in _ATOMIC_TYPES:
                    state[key] = value
                elif isinstance(value, _RngState):
                    current = state.get(key)
                    if current.__class__ is random.Random:
                        current.setstate(value.state)
                    else:
                        rng = random.Random()
                        rng.setstate(value.state)
                        state[key] = rng
                else:
                    state[key] = copy.deepcopy(value, memo)

    # -- fingerprint support (repro.mc.configuration_fingerprint) -----------

    def canon(self, value: Any) -> Any:
        """A process-stable, hashable canonicalisation of a value.

        Adopted objects become index references, containers become
        sorted tuples, RNGs become their state vectors.  Used by
        :func:`repro.mc.configuration_fingerprint`, the fuzz coverage
        sampler's configuration hash.
        """
        idx = self._ids.get(id(value))
        if idx is not None:
            return ("@", idx)
        if isinstance(value, _ATOMS):
            return value
        if isinstance(value, dict):
            return (
                "d",
                tuple(
                    sorted(
                        ((self.canon(k), self.canon(v))
                         for k, v in value.items()),
                        key=repr,
                    )
                ),
            )
        if isinstance(value, (list, tuple)):
            return ("t", tuple(self.canon(v) for v in value))
        if isinstance(value, (set, frozenset)):
            return ("s", tuple(sorted((self.canon(v) for v in value),
                                      key=repr)))
        if isinstance(value, random.Random):
            return ("rng", value.getstate())
        if isinstance(value, _RngState):
            return ("rng", value.state)
        if isinstance(value, Process):
            return ("proc", value.pid)
        return ("r", repr(value))

    def _canon_obj(self, obj: Any) -> Tuple:
        drop = _excluded(type(obj))
        return (
            "o",
            tuple(
                sorted(
                    ((key, self.canon(value))
                     for key, value in obj.__dict__.items()
                     if key not in drop),
                    key=repr,
                )
            ),
        )

    def fingerprint_components(self) -> Tuple:
        """Canonical states of all adopted objects that left birth state.

        Birth-equal objects are skipped so that a branch that lazily
        materialised (but never wrote) a register fingerprints the same
        as a branch that never touched it.
        """
        components = []
        for idx, obj in enumerate(self._objects):
            canon = self._canon_obj(obj)
            birth = self._birth_canon[idx]
            if birth is None:
                birth = self._canon_from_snap(idx)
                self._birth_canon[idx] = birth
            if canon != birth:
                components.append((idx, canon))
        return tuple(components)

    def _canon_from_snap(self, idx: int) -> Tuple:
        return (
            "o",
            tuple(
                sorted(
                    ((key, self.canon(value))
                     for key, value in self._birth[idx].items()),
                    key=repr,
                )
            ),
        )

    def volatile_signature(self) -> Tuple:
        """Draw counters of shared randomness touched by local code."""
        return tuple(
            (idx, self._objects[idx]._issued) for idx in self._volatile
        )


class _NeedsRedrive:
    """Sentinel standing in for a deferred generator rebuild.

    Truthy and non-None, so ``Process.has_work`` still reports the
    process runnable; :meth:`SimulationCheckpointer.materialize_generator`
    swaps in the real generator before the process is stepped.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<needs-redrive>"


NEEDS_REDRIVE = _NeedsRedrive()


@dataclass
class _ProcessMark:
    state: ProcessState
    next_op: int
    op_counter: int
    steps_in_op: int
    current_op_id: Optional[int]
    program_len: int
    mid_op: bool
    replay_log: Tuple[Any, ...]
    pending: Any  # the PendingPrimitive at capture time (frozen)


@dataclass
class Checkpoint:
    """Opaque capture of one simulation configuration."""

    steps_taken: int
    vault_snap: List[Dict[str, Any]]
    procs: Dict[str, _ProcessMark]
    history_mark: Tuple
    baselines: Dict[str, List[Dict[str, Any]]]


class SimulationCheckpointer:
    """Capture/restore a live :class:`Simulation` for backtracking search.

    ``roots`` seeds the vault's reachability walk (typically the scenario
    context object); process programs and pending primitives are walked
    automatically.  The caller must report operation-start baselines:
    before stepping a process whose ``gen is None`` (an invocation
    step), call :meth:`set_baseline` with the current vault snapshot so
    mid-operation restores can re-drive the generator from the state its
    local prologue originally observed.
    """

    def __init__(self, sim: Simulation, roots: List[Any]) -> None:
        self.sim = sim
        self.vault = StateVault(sim, roots)
        self._baselines: Dict[str, List[Dict[str, Any]]] = {}

    def set_baseline(
        self, pid: str, vault_snap: List[Dict[str, Any]]
    ) -> None:
        """Record the operation-start vault state for ``pid``."""
        self._baselines[pid] = vault_snap

    def step(self, pid: str) -> bool:
        """Step one process with the checkpoint bookkeeping handled.

        Records the operation-start baseline before an invocation step
        and rebuilds a deferred generator before a primitive step.  The
        explorer inlines this for speed; direct users of the
        checkpointer should step through here.
        """
        process = self.sim.processes[pid]
        if process.gen is None:
            self.set_baseline(pid, self.vault.snapshot())
        else:
            self.materialize_generator(pid)
        return self.sim.step_process(pid)

    def capture(self) -> Checkpoint:
        sim = self.sim
        vault_snap = self.vault.snapshot()
        memo = self.vault._memo()
        procs: Dict[str, _ProcessMark] = {}
        for pid, process in sim.processes.items():
            mid_op = process.gen is not None
            if mid_op and pid not in self._baselines:
                raise CheckpointError(
                    f"process {pid!r} is mid-operation but no "
                    "operation-start baseline was recorded; every "
                    "invocation step must be bracketed by set_baseline"
                )
            procs[pid] = _ProcessMark(
                state=process.state,
                next_op=process._next_op,
                op_counter=process._op_counter,
                steps_in_op=process.steps_in_current_op,
                current_op_id=process.current_op_id,
                program_len=len(process._program),
                mid_op=mid_op,
                replay_log=tuple(
                    copy.deepcopy(list(process._replay_log), memo)
                ),
                pending=process.pending,
            )
        history = sim.history
        pending_marks = {}
        for key in history._op_order:
            record = history._ops[key]
            if record.is_pending:
                pending_marks[key] = (
                    record.response_index,
                    record.result,
                    len(record.primitives),
                )
        history_mark = (
            len(history.events),
            history._index,
            len(history._op_order),
            pending_marks,
        )
        baselines = {
            pid: self._baselines[pid]
            for pid, mark in procs.items()
            if mark.mid_op
        }
        return Checkpoint(
            steps_taken=sim._steps_taken,
            vault_snap=vault_snap,
            procs=procs,
            history_mark=history_mark,
            baselines=baselines,
        )

    def restore(self, mark: Checkpoint) -> None:
        sim = self.sim
        vault = self.vault
        # No discovery pass here: everything mutable is adopted while
        # still pristine by the captures bracketing each step (and by
        # the explorer's pre-check adoption at leaves).  Walking here
        # would permanently adopt the ephemeral handles that leaf
        # checks spawn and this restore is about to discard.

        # Phase 1: shared state back to the checkpoint.
        vault.restore(mark.vault_snap)

        # Phase 2: process control state; drop processes spawned later.
        # Mid-operation generators are NOT rebuilt here: rebuilding is
        # deferred to materialize_generator(), which the explorer calls
        # just before stepping a process -- a backtrack that never
        # steps a process never pays for re-driving it.
        for pid in [p for p in sim.processes if p not in mark.procs]:
            del sim.processes[pid]
        for pid, pmark in mark.procs.items():
            process = sim.processes.get(pid)
            if process is None:
                raise CheckpointError(
                    f"cannot restore {pid!r}: process no longer exists"
                )
            process.state = pmark.state
            process._next_op = pmark.next_op
            process._op_counter = pmark.op_counter
            process.steps_in_current_op = pmark.steps_in_op
            process.current_op_id = pmark.current_op_id
            del process._program[pmark.program_len:]
            process._replay_log = list(pmark.replay_log)
            if pmark.mid_op:
                process.gen = NEEDS_REDRIVE
                process.pending = pmark.pending
                process.current_op = process._program[pmark.next_op - 1]
            else:
                process.gen = None
                process.pending = None
                process.current_op = None

        # Phase 3: truncate the history to the checkpoint's high-water
        # mark and un-mutate records that were pending at capture time.
        events_len, index, op_order_len, pending_marks = mark.history_mark
        history = sim.history
        del history.events[events_len:]
        history._index = index
        for key in history._op_order[op_order_len:]:
            history._ops.pop(key, None)
        del history._op_order[op_order_len:]
        for key, (resp_idx, result, prim_len) in pending_marks.items():
            record = history._ops.get(key)
            if record is None:
                continue
            record.response_index = resp_idx
            record.result = result
            del record.primitives[prim_len:]

        # Phase 4: runner bookkeeping.
        sim._steps_taken = mark.steps_taken
        sim._runnable.clear()
        sim._runnable_sorted = None
        for process in sim.processes.values():
            sim._work_changed(process)
        self._baselines = dict(mark.baselines)

    def materialize_generator(
        self, pid: str, present: Optional[List[Dict[str, Any]]] = None
    ) -> None:
        """Rebuild a deferred mid-operation generator, if necessary.

        Re-driving runs the operation's local code again, so the vault
        is first rolled back to the operation-start baseline the
        prologue originally observed; the re-run repeats the original
        handle assignments and nonce draws, and the final restore lands
        shared state exactly back on the present configuration.  Must be
        called before stepping any process a restore left suspended.
        ``present`` may pass a snapshot of the current configuration if
        the caller already holds one.
        """
        process = self.sim.processes[pid]
        if process.gen is not NEEDS_REDRIVE:
            return
        vault = self.vault
        if present is None:
            present = vault.snapshot()
        vault.restore(self._baselines[pid])
        op = process._program[process._next_op - 1]
        gen = op.start()
        try:
            yielded = next(gen)
            for value in process._replay_log:
                yielded = gen.send(copy.deepcopy(value, vault._memo()))
        except StopIteration:
            raise CheckpointError(
                f"operation {op.name!r} of {pid!r} finished during "
                "re-drive; operations must be deterministic "
                "functions of their primitive results"
            ) from None
        vault.restore(present)
        process.gen = gen
        process.pending = yielded
        process.current_op = op
