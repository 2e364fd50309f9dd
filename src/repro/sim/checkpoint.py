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
   state *in place* rather than swap in copies.  The
   :class:`~repro.sim.vault.StateVault` *adopts* mutable ``repro.*`` instances (shared registers, pads, nonce
   sources, per-process handles) and restores each adopted object's
   ``__dict__`` while preserving references between adopted objects.
   Objects adopted *after* a checkpoint was taken are rolled back to
   their birth state, which makes lazily materialised registers
   (``RegisterArray``/``BitMatrix`` cells) behave exactly like the
   paper's infinitely pre-allocated registers.

**Adoption contract.**  The vault walks the reachable object graph
once, at construction.  After that, snapshots never walk: an object
joins the vault when it first becomes the target of a pending primitive
that is about to be applied (:meth:`SimulationCheckpointer.step` and the
explorer adopt the target before stepping).  That route is complete for
shared state because an operation can only *mutate* a shared object by
yielding a primitive on it; an object merely materialised by local
computation (a lazy register cell) is still in its birth state when
that first primitive arrives.  The snapshot copier is the safety net:
if a copied attribute reaches a mutable ``repro.*`` instance the vault
has not adopted (local code stored a fresh object in adopted state),
the vault adopts it and retakes the snapshot, so the object is tracked
by identity rather than silently duplicated.  A client that needs the
full reachable set at a point in time (the fuzz coverage sampler's
fingerprints) calls :meth:`StateVault.adopt_new` itself.

**Sharing rule.**  Snapshot, restore and generator re-drive copy only
what can change.  A value is shared, not deep-copied, when it is an
atom or ``BOTTOM``, a tuple or frozenset built only from such values,
or a frozen dataclass (``RWord``, ``Nonced``) whose fields are all
immutable; an adopted object stands for itself.  Mutable containers
(sets, lists, dicts) are still copied -- a flat one holding only
immutable values by a shallow copy, which is a deep copy of it -- so a
mutation after the snapshot never leaks into it.

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
    ckpt.step("a")
    ...
    ckpt.restore(mark)        # back to the captured state, in place
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.process import ProcessState
from repro.sim.runner import Simulation
from repro.sim.vault import StateVault, copy_value


class CheckpointError(RuntimeError):
    """A simulation state cannot be captured or restored."""


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

    ``roots`` seeds the vault's one reachability walk (typically the
    scenario context object); process programs and pending primitives
    are walked automatically.  :meth:`step` does the per-step
    bookkeeping; a caller stepping the simulation itself must do the
    same: before an invocation step (``gen is None``), report the
    operation-start baseline with :meth:`set_baseline`, so mid-operation
    restores can re-drive the generator from the state its local
    prologue originally observed; before a primitive step, adopt the
    pending primitive's target (``vault.adopt``).
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

        Records the operation-start baseline before an invocation step;
        before a primitive step, rebuilds a deferred generator and
        adopts the primitive's target (the adoption contract: a shared
        object joins the vault before its first primitive applies).
        The explorer inlines this for speed; direct users of the
        checkpointer should step through here.
        """
        process = self.sim.processes[pid]
        if process.gen is None:
            self.set_baseline(pid, self.vault.snapshot())
        else:
            self.materialize_generator(pid)
            self.vault.adopt(process.pending.obj)
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
                    copy_value(value, memo) for value in process._replay_log
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
        # No discovery pass here: every shared object a step mutated
        # was adopted, still pristine, just before that step applied
        # its first primitive.  Walking here would permanently adopt
        # the ephemeral handles that leaf checks spawn and this restore
        # is about to discard.

        # Phase 1: shared state back to the checkpoint.
        vault.restore(mark.vault_snap)

        # Phase 2: process control state; drop processes spawned later.
        # Mid-operation generators are NOT rebuilt here: rebuilding is
        # deferred to materialize_generator(), which the explorer calls
        # just before stepping a process -- a backtrack that never
        # steps a process never pays for re-driving it.
        # A dropped process is cut loose from its program (say, a leaf
        # check's auditor, whose ops hold the auditor that holds the
        # process), or the pair would wait for the cyclic collector.
        for pid in [p for p in sim.processes if p not in mark.procs]:
            sim.processes.pop(pid)._detach()
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
        memo = vault._memo()
        try:
            yielded = next(gen)
            for value in process._replay_log:
                yielded = gen.send(copy_value(value, memo))
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
