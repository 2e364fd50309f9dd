"""Tests for the checkpoint vault's adoption contract and sharing rule
(repro.sim.vault, documented in repro.sim.checkpoint).

- Adoption: the vault walks the object graph once, at construction;
  afterwards an object joins when it first becomes a stepped
  primitive's target.  The shadow-walk test re-runs the full walk at
  every snapshot and leaf of every registered scenario and checks that
  nothing the vault has not adopted ever left its birth state.  A fresh
  mutable repro object stored into adopted state is adopted by the
  snapshot copier, never silently duplicated.
- Sharing: immutable values (``RWord``, ``Nonced``, ``BOTTOM``) are held
  by identity; mutable containers are copied, so later mutations never
  leak into a snapshot.
- Dropped processes: a process that a restore drops is freed by
  reference counting, not left in a cycle for the collector; so is the
  whole explored simulation once ``explore`` returns.
"""

import gc
import random
import weakref
from dataclasses import dataclass

import pytest

from repro.core.auditable_register import AuditableRegister
from repro.core.types import Nonced
from repro.crypto.nonce import NonceSource, PresetNonceSource
from repro.mc import explore
from repro.mc.explorer import _Explorer
from repro.mc.scenarios import (
    get_scenario,
    register_scenario_check,
    register_scenario_factory,
    scenario_names,
)
from repro.memory.array import RegisterArray
from repro.memory.base import BOTTOM
from repro.memory.register import AtomicRegister
from repro.memory.rword import RWord
from repro.sim.checkpoint import SimulationCheckpointer
from repro.sim.process import Op
from repro.sim.runner import Simulation
from repro.sim.vault import StateVault


def _builders():
    for name in scenario_names():
        yield name, get_scenario(name)()
    yield "alg1-r2-w1", (
        register_scenario_factory(2, 1, 0), register_scenario_check,
    )


class _Shadow:
    """The full reachability walk, run beside the vault.

    Records each unadopted object's state the first time the walk
    reaches it (the state the walk-per-snapshot vault used as birth)
    and asserts that it never changes while the vault leaves the object
    unadopted, and that a later adoption starts from that state.
    """

    def __init__(self) -> None:
        self.first_seen = {}  # id -> (object, canonical state)
        self.unadopted_checks = 0

    def check(self, vault: StateVault) -> None:
        for obj in vault.reachable():
            idx = vault.index_of(obj)
            # first_seen holds each object, so no id is ever reused.
            seen = self.first_seen.get(id(obj))
            if idx is None:
                state = vault._canon_obj(obj)
                if seen is None:
                    self.first_seen[id(obj)] = (obj, state)
                else:
                    assert state == seen[1], (
                        f"unadopted {obj!r} left its birth state"
                    )
                    self.unadopted_checks += 1
            elif seen is not None:
                assert vault._canon_from_snap(idx) == seen[1], (
                    f"{obj!r} was adopted after leaving its birth state"
                )


class _ShadowExplorer(_Explorer):
    def __init__(self, sim, context, check, shadow):
        super().__init__(sim, context, check, 200_000, 200, True)
        self.shadow = shadow

    def _leaf(self, prefix):
        self.shadow.check(self.ckpt.vault)
        super()._leaf(prefix)


def _explore_with_shadow(monkeypatch, factory, check):
    """Explore with the shadow walk beside every snapshot and leaf."""
    shadow = _Shadow()
    snapshot = StateVault.snapshot

    def shadowed_snapshot(vault):
        shadow.check(vault)
        return snapshot(vault)

    monkeypatch.setattr(StateVault, "snapshot", shadowed_snapshot)
    sim, context = factory()
    report = _ShadowExplorer(sim, context, check, shadow).run()
    monkeypatch.undo()
    return report, shadow


class TestAdoptionContract:
    @pytest.mark.parametrize("name", [name for name, _ in _builders()])
    def test_shadow_walk_finds_nothing_unadopted_that_changed(
        self, name, monkeypatch
    ):
        factory, check = dict(_builders())[name]
        report, _ = _explore_with_shadow(monkeypatch, factory, check)
        # The shadowed run did the same work as a plain one.
        plain = explore(factory, check)
        assert (report.executions, report.distinct_states) == (
            plain.executions, plain.distinct_states,
        )

    def test_shadow_walk_is_not_vacuous(self, monkeypatch):
        # Lazily materialised cells exist unadopted between their
        # creation and their first primitive; the shadow must meet them.
        _, shadow = _explore_with_shadow(
            monkeypatch, *get_scenario("alg1-w1-a1")()
        )
        assert shadow.unadopted_checks > 0

    def test_snapshots_never_walk_after_construction(self, monkeypatch):
        factory, check = get_scenario("alg2-w2")()
        sim, context = factory()
        explorer = _Explorer(sim, context, check, 200_000, 200, True)

        def no_walk(vault):
            raise AssertionError("graph walk after construction")

        monkeypatch.setattr(StateVault, "reachable", no_walk)
        report = explorer.run()
        assert report.executions == 354

    def _publisher(self, make_value):
        """One process whose operation stores a fresh object into an
        adopted register ``slot`` with a write primitive."""
        sim = Simulation()
        slot = AtomicRegister("slot", None)
        made = []

        def publish():
            made.append(make_value())
            yield from slot.write(made[-1])

        sim.spawn("a")
        sim.add_program("a", [Op("publish", publish)])
        ckpt = SimulationCheckpointer(sim, roots=[slot])
        ckpt.step("a")  # invocation: local code builds the object
        ckpt.step("a")  # the write publishes it
        return ckpt, slot, made[-1]

    def test_fresh_object_in_shared_state_is_adopted_not_copied(self):
        ckpt, slot, box = self._publisher(lambda: AtomicRegister("box", 0))
        vault = ckpt.vault
        assert vault.index_of(box) is None
        mark = ckpt.capture()
        assert vault.index_of(box) is not None
        assert mark.vault_snap[vault.index_of(slot)]["_value"] is box
        box._value = 9  # a later change to the published object
        ckpt.restore(mark)
        assert slot.peek() is box
        assert box.peek() == 0

    def test_fresh_object_nested_in_a_container_is_adopted(self):
        ckpt, slot, items = self._publisher(
            lambda: [AtomicRegister("box", 0)]
        )
        (box,) = items
        vault = ckpt.vault
        mark = ckpt.capture()
        assert vault.index_of(box) is not None
        held = mark.vault_snap[vault.index_of(slot)]["_value"]
        assert held is not items and held[0] is box
        box._value = 9
        items.append("later")
        ckpt.restore(mark)
        assert slot.peek() == [box]
        assert slot.peek()[0] is box and box.peek() == 0


@dataclass(frozen=True)
class _FrozenList:
    items: list


@dataclass(frozen=True, slots=True)
class _SlottedPair:
    left: int
    right: object


class _WriteCountingDict(dict):
    """An instance ``__dict__`` that counts item assignments."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


class TestRestoreFastPath:
    def test_unchanged_object_with_excluded_keys_is_skipped(self):
        """Snapshots omit ``_vault_exclude`` keys, so restore compares
        state without them: an array whose state is already in place is
        not rewritten."""
        array = RegisterArray("a")
        array[3]  # a non-empty, excluded cell cache
        vault = StateVault(Simulation(), roots=[array])
        assert vault.index_of(array) is not None
        snap = vault.snapshot()
        array.__dict__ = spy = _WriteCountingDict(array.__dict__)
        vault.restore(snap)
        assert spy.writes == 0
        assert array[3] is spy["_cells"][3]

    def test_keys_added_after_the_snapshot_go_but_excluded_ones_stay(self):
        array = RegisterArray("a")
        cell = array[3]
        vault = StateVault(Simulation(), roots=[array])
        snap = vault.snapshot()
        array.stray = 1
        vault.restore(snap)
        assert not hasattr(array, "stray")
        assert array[3] is cell

    def test_reader_indices_round_trip_by_identity(self):
        """``_reader_indices`` is a frozenset that ``reader()`` rebinds,
        so snapshots share it and restores put back the same object."""
        sim = Simulation()
        reg = AuditableRegister(2)
        reg.reader(sim.spawn("r0"), 0)
        before = reg._reader_indices
        vault = StateVault(sim, roots=[reg])
        snap = vault.snapshot()
        assert snap[vault.index_of(reg)]["_reader_indices"] is before
        vault.restore(snap)
        assert reg._reader_indices is before == frozenset({0})
        reg.reader(sim.spawn("r1"), 1)
        vault.restore(snap)
        assert reg._reader_indices is before

    def _nonce_vault(self, source):
        vault = StateVault(Simulation(), roots=[source])
        snap = vault.snapshot()
        calls = []
        rng = source._rng
        rng.setstate = lambda state: calls.append(state) or (
            random.Random.setstate(rng, state)
        )
        return vault, snap, calls

    @pytest.mark.parametrize(
        "source", [NonceSource(3), PresetNonceSource([7, 9], seed=3)],
        ids=["random", "preset"],
    )
    def test_unchanged_nonce_source_is_not_setstate_again(self, source):
        source.fresh()  # a draw before the snapshot is no change since
        vault, snap, calls = self._nonce_vault(source)
        for _ in range(3):
            vault.restore(snap)
        assert calls == []

    @pytest.mark.parametrize(
        "source", [NonceSource(3), PresetNonceSource([7], seed=3)],
        ids=["random", "preset"],
    )
    def test_nonce_source_that_drew_is_rewound_exactly(self, source):
        vault, snap, calls = self._nonce_vault(source)
        first = [source.fresh(), source.fresh()]
        vault.restore(snap)
        assert len(calls) == 1
        assert source.issued == 0
        assert [source.fresh(), source.fresh()] == first


class TestSharingRule:
    def _vault(self, **values):
        regs = {name: AtomicRegister(name, value)
                for name, value in values.items()}
        vault = StateVault(Simulation(), roots=[regs])
        return vault, regs

    def _held(self, vault, snap, reg):
        return snap[vault.index_of(reg)]["_value"]

    def test_immutable_values_are_held_by_identity(self):
        word = RWord(3, "v", 0b101)
        nonced_word = RWord(1, Nonced(5, 77), 0)
        pair = _SlottedPair(1, (BOTTOM, "x"))
        vault, regs = self._vault(
            word=word, nonced=nonced_word, bottom=BOTTOM,
            tup=(word, frozenset({1, 2})), pair=pair,
        )
        snap = vault.snapshot()
        assert self._held(vault, snap, regs["word"]) is word
        assert self._held(vault, snap, regs["nonced"]) is nonced_word
        assert self._held(vault, snap, regs["bottom"]) is BOTTOM
        assert self._held(vault, snap, regs["tup"]) is regs["tup"].peek()
        assert self._held(vault, snap, regs["pair"]) is pair
        vault.restore(snap)
        assert regs["word"].peek() is word
        assert regs["nonced"].peek() is nonced_word

    def test_mutable_containers_are_copied(self):
        vault, regs = self._vault(
            s={1, 2}, l=[1, (2, 3)], d={"k": [1]},
            frozen=_FrozenList([1, 2]),
        )
        snap = vault.snapshot()
        for name in ("s", "l", "d", "frozen"):
            assert self._held(vault, snap, regs[name]) is not (
                regs[name].peek()
            )
        regs["s"].peek().add(9)
        regs["l"].peek().append(4)
        regs["d"].peek()["k"].append(2)
        regs["frozen"].peek().items.append(3)
        assert self._held(vault, snap, regs["s"]) == {1, 2}
        assert self._held(vault, snap, regs["l"]) == [1, (2, 3)]
        assert self._held(vault, snap, regs["d"]) == {"k": [1]}
        assert self._held(vault, snap, regs["frozen"]).items == [1, 2]
        for _ in range(2):  # restores never hand out the snapshot itself
            vault.restore(snap)
            assert regs["s"].peek() == {1, 2}
            assert regs["l"].peek() == [1, (2, 3)]
            assert regs["d"].peek() == {"k": [1]}
            assert regs["frozen"].peek().items == [1, 2]
            regs["s"].peek().add(9)
            regs["l"].peek().append(4)

    def test_aliased_container_stays_aliased(self):
        shared = [1, 2]
        vault, regs = self._vault(a=shared, b=shared)
        snap = vault.snapshot()
        assert self._held(vault, snap, regs["a"]) is self._held(
            vault, snap, regs["b"]
        )
        vault.restore(snap)
        assert regs["a"].peek() is regs["b"].peek()
        assert regs["a"].peek() is not shared


class TestDroppedProcesses:
    @pytest.mark.parametrize("name", ["alg1-w1-r1", "alg1-w1-a1"])
    def test_restore_leaves_no_dropped_process_to_the_collector(
        self, name, monkeypatch
    ):
        # A leaf check spawns an auditor process whose program holds
        # the auditor's bound methods; once a restore drops the process,
        # reference counting alone must free it.
        dropped = []
        original = SimulationCheckpointer.restore

        def recording_restore(self, mark):
            dropped.extend(
                weakref.ref(process)
                for pid, process in self.sim.processes.items()
                if pid not in mark.procs
            )
            original(self, mark)

        monkeypatch.setattr(
            SimulationCheckpointer, "restore", recording_restore
        )
        factory, check = get_scenario(name)()
        gc.collect()
        gc.disable()
        try:
            report = explore(factory, check)
            survivors = sum(ref() is not None for ref in dropped)
        finally:
            gc.enable()
        assert report.violations == [] and len(dropped) > 0
        assert survivors == 0

    @pytest.mark.parametrize("name", ["alg1-w1-r1", "alg1-w1-a1"])
    def test_explore_leaves_no_simulation_to_the_collector(
        self, name, monkeypatch
    ):
        # Each process's watcher is a bound method of its simulation,
        # which holds the process: explore must cut that cycle (and the
        # program -> handle -> process ones) when it finishes.
        alive = []
        spawn = Simulation.spawn

        def recording_spawn(self, pid):
            process = spawn(self, pid)
            alive.append(weakref.ref(process))
            if len(alive) == 1:
                alive.append(weakref.ref(self))
            return process

        monkeypatch.setattr(Simulation, "spawn", recording_spawn)
        factory, check = get_scenario(name)()
        gc.collect()
        gc.disable()
        try:
            report = explore(factory, check)
            assert report.violations == [] and len(alive) > 2
            del report
            survivors = [ref() for ref in alive if ref() is not None]
        finally:
            gc.enable()
        assert survivors == []
