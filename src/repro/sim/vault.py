"""The checkpoint vault: identity-preserving snapshot/restore of the
mutable ``repro.*`` objects a simulation's state lives in.

:class:`StateVault` is the shared-state half of
:mod:`repro.sim.checkpoint` (whose docstring states the adoption
contract and the sharing rule implemented here); the fuzz coverage
sampler uses it alone, for configuration fingerprints.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import random
import types
from operator import is_
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.nonce import NonceSource
from repro.memory.base import Bottom
from repro.sim.history import History
from repro.sim.process import Op, Process
from repro.sim.runner import Simulation

_ATOMS = (str, bytes, int, float, bool, type(None))

# Exact types whose instances are immutable: snapshot/restore may share
# them instead of deep-copying (subclasses could be mutable, hence the
# exact-type check at use sites).  ``Bottom`` is the ``BOTTOM`` singleton.
_ATOMIC_TYPES = frozenset(
    (str, bytes, int, float, bool, complex, type(None), Bottom)
)

# class -> its field names if it is a frozen dataclass, else None.
_FROZEN_FIELDS: Dict[type, Optional[Tuple[str, ...]]] = {}


def _frozen_fields(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FROZEN_FIELDS[cls]
    except KeyError:
        pass
    params = getattr(cls, "__dataclass_params__", None)
    names = None
    if params is not None and params.frozen:
        # dataclasses.fields, not __dict__: slotted classes have none.
        names = tuple(f.name for f in dataclasses.fields(cls))
    _FROZEN_FIELDS[cls] = names
    return names


def _immutable(value: Any) -> bool:
    """Whether ``value`` can never change: the sharing rule."""
    cls = value.__class__
    if cls in _ATOMIC_TYPES:
        return True
    if cls is tuple or cls is frozenset:
        for item in value:
            if not _immutable(item):
                return False
        return True
    names = _frozen_fields(cls)
    if names is None:
        return False
    for name in names:
        if not _immutable(getattr(value, name)):
            return False
    return True


def copy_value(value: Any, memo: Dict[int, Any]) -> Any:
    """A private copy of ``value`` under ``memo``: adopted objects stand
    for themselves, immutable values are shared, the rest is
    deep-copied."""
    cls = value.__class__
    if cls in _ATOMIC_TYPES:
        return value
    held = memo.get(id(value))
    if held is not None:
        return held
    if _immutable(value):
        return value
    if cls is set or cls is list:
        items = value
    elif cls is dict:
        items = value.items()  # (key, value) pairs are tuples
    else:
        return copy.deepcopy(value, memo)
    for item in items:
        if not _immutable(item):
            return copy.deepcopy(value, memo)
    # A flat container of immutable values: its shallow copy is a deep
    # copy.  Registered in the memo like deepcopy does, so aliases of
    # one container stay aliases of one copy.
    clone = cls(value)
    memo[id(value)] = clone
    memo.setdefault(id(memo), []).append(value)
    return clone


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


_EXCLUDED: Dict[type, frozenset] = {}


def _excluded(cls: type) -> frozenset:
    try:
        return _EXCLUDED[cls]
    except KeyError:
        drop = _EXCLUDED[cls] = frozenset(getattr(cls, "_vault_exclude", ()))
        return drop


class StateVault:
    """Identity-preserving snapshot/restore of all adopted repro state.

    The vault *adopts* mutable ``repro.*`` instances: everything
    reachable from the given roots (plus process programs and pending
    primitives) at construction, then each primitive target as it is
    first stepped (the adoption contract in :mod:`repro.sim.checkpoint`).
    ``snapshot()`` returns an opaque state vector; ``restore(snap)``
    writes it back into the same instances, so references held by live
    generators stay valid.

    Frozen dataclasses (``RWord``, events) are immutable values, not
    state holders, and are never adopted; :class:`Process`,
    :class:`Simulation`, :class:`History` and :class:`Op` are managed by
    :class:`repro.sim.checkpoint.SimulationCheckpointer` instead.
    """

    def __init__(self, sim: Simulation, roots: List[Any]) -> None:
        self.sim = sim
        self._roots = list(roots)
        self._objects: List[Any] = []
        self._ids: Dict[int, int] = {}
        self._birth: List[Dict[str, Any]] = []
        self._birth_canon: List[Optional[Tuple]] = []
        self._volatile: List[int] = []
        # id -> object for every adopted object plus the runner state a
        # copy must never duplicate; _memo() adds the live processes.
        self._memo_base: Dict[int, Any] = {id(sim): sim}
        self.adopt_new()

    # -- discovery ---------------------------------------------------------

    def index_of(self, obj: Any) -> Optional[int]:
        return self._ids.get(id(obj))

    def adopt(self, obj: Any) -> int:
        """Track one instance (birth state = its state right now)."""
        idx = self._ids.get(id(obj))
        if idx is None:
            self._adopt_all([obj])
            idx = self._ids[id(obj)]
        return idx

    def _register(self, obj: Any) -> int:
        idx = len(self._objects)
        self._objects.append(obj)
        self._ids[id(obj)] = idx
        self._memo_base[id(obj)] = obj
        self._birth.append({})
        self._birth_canon.append(None)
        if isinstance(obj, NonceSource):
            # Nonce draws happen in *local* computation, so shared nonce
            # sources are the one piece of state the independence
            # relation must watch outside primitives (repro.mc).
            self._volatile.append(idx)
        return idx

    def _adopt_all(self, objs: List[Any]) -> None:
        """Adopt ``objs`` in their current state, plus any unadopted
        instance their births reach (so no birth copies one)."""
        batch = [obj for obj in objs if id(obj) not in self._ids]
        for obj in batch:
            self._register(obj)
        while batch:
            memo = self._memo()
            births = [self._snap_one(obj, memo) for obj in batch]
            strays = self._strays(memo)
            if not strays:
                for obj, birth in zip(batch, births):
                    self._birth[self._ids[id(obj)]] = birth
                return
            for obj in strays:
                self._register(obj)
            batch += strays

    def _adoptable(self, value: Any) -> bool:
        cls = type(value)
        if isinstance(value, type) or not hasattr(value, "__dict__"):
            return False
        if not getattr(cls, "__module__", "").startswith("repro."):
            return False
        if isinstance(value, (Simulation, Process, History, Op)):
            return False
        if _frozen_fields(cls) is not None:
            return False
        return True

    def _strays(self, memo: Dict[int, Any]) -> List[Any]:
        """Unadopted mutable repro instances a copy under ``memo`` duplicated.

        ``copy.deepcopy`` keeps every original it copied alive in
        ``memo[id(memo)]``, in copy order (deterministic).
        """
        return [
            value for value in memo.get(id(memo), ())
            if id(value) not in self._ids and self._adoptable(value)
        ]

    def reachable(self) -> List[Any]:
        """Every adoptable instance reachable right now, in walk order.

        The walk starts at the roots, process programs and pending
        primitives, and enters every attribute -- including
        ``_vault_exclude`` ones: exclusion applies to snapshots, not to
        discovery.  The order is deterministic, so adoption indices are
        reproducible across interpreter processes.
        """
        found: List[Any] = []
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
                found.append(value)
                stack.extend(value.__dict__.values())
            elif hasattr(value, "__dict__"):
                # Frozen dataclasses and foreign containers may still
                # reference adoptable state.
                stack.extend(value.__dict__.values())
        return found

    def adopt_new(self) -> None:
        """Walk the object graph and adopt every instance not yet tracked.

        Runs once at construction.  Snapshots do not call it (the
        adoption contract in :mod:`repro.sim.checkpoint`); a client that
        wants everything reachable adopted at a given moment calls it
        then.
        """
        fresh = [obj for obj in self.reachable() if id(obj) not in self._ids]
        if fresh:
            self._adopt_all(fresh)

    # -- snapshot / restore ------------------------------------------------

    def _memo(self) -> Dict[int, Any]:
        """Deepcopy memo that preserves adopted and runner identities."""
        memo = dict(self._memo_base)
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
            # copy_value's fast paths inlined: this loop is the hot path.
            cls = value.__class__
            if cls in _ATOMIC_TYPES:
                snap[key] = value
            elif cls is random.Random:
                snap[key] = _RngState(value.getstate())
            else:
                held = memo.get(id(value))
                snap[key] = held if held is not None else copy_value(value, memo)
        return snap

    def snapshot(self) -> List[Dict[str, Any]]:
        """The current state of every adopted object (opaque).

        Never walks the object graph.  If the copy met an unadopted
        mutable repro instance, it is adopted and the snapshot retaken.
        """
        while True:
            memo = self._memo()
            snap = [self._snap_one(obj, memo) for obj in self._objects]
            strays = self._strays(memo)
            if not strays:
                return snap
            self._adopt_all(strays)

    def restore(self, snap: List[Dict[str, Any]]) -> None:
        """Write a snapshot back into the adopted instances, in place.

        Objects adopted after the snapshot was taken are rolled back to
        their birth state, so post-checkpoint materialisations vanish
        semantically (their state reverts to the initial value).
        """
        memo = self._memo()
        for idx, obj in enumerate(self._objects):
            target = snap[idx] if idx < len(snap) else self._birth[idx]
            state = obj.__dict__
            # Snapshots omit the excluded keys, so compare without them.
            drop = _excluded(type(obj))
            keys = state.keys() - drop if drop else state.keys()
            if keys == target.keys():
                if all(map(is_, map(state.__getitem__, target),
                           target.values())):
                    # Every value already in place (shared immutables
                    # and adopted objects are held by identity): the
                    # loop below would reassign the same objects.
                    continue
                if (idx in self._volatile
                        and state["_issued"] == target["_issued"]):
                    # A nonce source's state is a function of its draw
                    # count (every draw goes through ``_fresh_locked``,
                    # which counts it), so a source that drew nothing
                    # since the snapshot is in place -- its RNG too,
                    # which the identity test above can never see.
                    continue
            else:
                for key in keys - target.keys():
                    del state[key]
            for key, value in target.items():
                # copy_value's fast paths inlined: this loop is the hot path.
                cls = value.__class__
                if cls in _ATOMIC_TYPES:
                    state[key] = value
                elif cls is _RngState:
                    current = state.get(key)
                    if current.__class__ is random.Random:
                        current.setstate(value.state)
                    else:
                        rng = random.Random()
                        rng.setstate(value.state)
                        state[key] = rng
                else:
                    held = memo.get(id(value))
                    state[key] = (
                        held if held is not None else copy_value(value, memo)
                    )

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
