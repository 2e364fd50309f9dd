"""Seeded workload builders: system construction + operation programs.

Every experiment builds a system from a :class:`RegisterWorkload`
(counts, operation mix, seed) so that executions are reproducible from
``(workload seed, schedule seed, pad seed)`` alone.

The builders return a :class:`BuiltSystem` exposing the host runtime,
the shared object and the handle/index maps the analysis tooling needs
(reader pid -> reader index, etc.).  ``runtime=`` selects the execution
backend: the default (``None``, or ``"sim"``) is the deterministic
simulator; ``"thread"`` (or any :class:`repro.rt.Runtime` instance)
runs the same workload under the thread runtime — reproducibility of
*values* (write inputs, pads, nonces) is preserved, interleavings come
from the OS.
"""

from __future__ import annotations

import random

from repro._seeding import stable_hash
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.core.auditable_max_register import AuditableMaxRegister
from repro.core.auditable_register import AuditableRegister
from repro.core.auditable_snapshot import AuditableSnapshot
from repro.crypto.nonce import NonceSource
from repro.crypto.pad import OneTimePadSequence
from repro.sim.runner import Simulation
from repro.sim.scheduler import RandomSchedule, Schedule


def _runtime_host(
    runtime: Union[None, str, Any], schedule: Optional[Schedule]
) -> Any:
    """Resolve a builder's ``runtime=`` argument to a host.

    ``None`` builds a :class:`Simulation` on ``schedule``; a string
    goes through :func:`repro.rt.make_runtime` (``"sim"`` builds the
    same kind of object); anything else is assumed to already be a
    runtime.
    """
    if runtime is None:
        return Simulation(schedule=schedule)
    if isinstance(runtime, str):
        from repro.rt import make_runtime

        return make_runtime(runtime, schedule=schedule)
    return runtime


@dataclass
class RegisterWorkload:
    """Parameters of a register workload."""

    num_readers: int = 2
    num_writers: int = 2
    num_auditors: int = 1
    reads_per_reader: int = 4
    writes_per_writer: int = 3
    audits_per_auditor: int = 2
    seed: int = 0
    initial: Any = "v0"
    unique_values: bool = True  # distinct write inputs (w{i}-{k})

    def write_values(self, writer: int) -> List[Any]:
        if self.unique_values:
            return [
                f"w{writer}-{k}" for k in range(self.writes_per_writer)
            ]
        rng = random.Random(stable_hash(self.seed, "values", writer))
        return [
            rng.randrange(10) for _ in range(self.writes_per_writer)
        ]


@dataclass
class BuiltSystem:
    # ``sim`` is the host the programs were loaded into: a Simulation
    # (the default, or ``runtime="sim"``) or any other runtime backend
    # (every backend exposes run()/history/steps_taken; only the
    # Simulation offers step()/crash() etc.).
    sim: Any
    register: Any
    reader_index: Dict[str, int] = field(default_factory=dict)
    updater_index: Dict[str, int] = field(default_factory=dict)
    scanner_index: Dict[str, int] = field(default_factory=dict)
    handles: Dict[str, Any] = field(default_factory=dict)

    def run(self):
        return self.sim.run()


def build_register_system(
    workload: RegisterWorkload,
    schedule: Optional[Schedule] = None,
    pad_seed: Optional[int] = None,
    runtime: Union[None, str, Any] = None,
) -> BuiltSystem:
    """An Algorithm 1 register under the given workload."""
    schedule = schedule or RandomSchedule(workload.seed)
    pad = OneTimePadSequence(
        workload.num_readers,
        seed=workload.seed if pad_seed is None else pad_seed,
    )
    sim = _runtime_host(runtime, schedule)
    reg = AuditableRegister(
        num_readers=workload.num_readers, initial=workload.initial, pad=pad
    )
    built = BuiltSystem(sim=sim, register=reg)
    for j in range(workload.num_readers):
        pid = f"r{j}"
        handle = reg.reader(sim.spawn(pid), j)
        built.reader_index[pid] = j
        built.handles[pid] = handle
        sim.add_program(
            pid, [handle.read_op() for _ in range(workload.reads_per_reader)]
        )
    for i in range(workload.num_writers):
        pid = f"w{i}"
        handle = reg.writer(sim.spawn(pid))
        built.handles[pid] = handle
        sim.add_program(
            pid, [handle.write_op(v) for v in workload.write_values(i)]
        )
    for a in range(workload.num_auditors):
        pid = f"a{a}"
        handle = reg.auditor(sim.spawn(pid))
        built.handles[pid] = handle
        sim.add_program(
            pid,
            [handle.audit_op() for _ in range(workload.audits_per_auditor)],
        )
    return built


def build_max_register_system(
    workload: RegisterWorkload,
    schedule: Optional[Schedule] = None,
    pad_seed: Optional[int] = None,
    nonce_seed: Optional[int] = None,
    max_substrate: str = "atomic",
    runtime: Union[None, str, Any] = None,
) -> BuiltSystem:
    """An Algorithm 2 max register under the given workload.

    Write inputs are seeded random integers (max registers need a total
    order, so unique strings do not apply).
    """
    schedule = schedule or RandomSchedule(workload.seed)
    pad = OneTimePadSequence(
        workload.num_readers,
        seed=workload.seed if pad_seed is None else pad_seed,
    )
    nonces = NonceSource(
        seed=workload.seed if nonce_seed is None else nonce_seed
    )
    sim = _runtime_host(runtime, schedule)
    reg = AuditableMaxRegister(
        num_readers=workload.num_readers,
        initial=0,
        pad=pad,
        nonces=nonces,
        max_substrate=max_substrate,
    )
    built = BuiltSystem(sim=sim, register=reg)
    rng = random.Random(stable_hash(workload.seed, "maxvals"))
    for j in range(workload.num_readers):
        pid = f"r{j}"
        handle = reg.reader(sim.spawn(pid), j)
        built.reader_index[pid] = j
        built.handles[pid] = handle
        sim.add_program(
            pid, [handle.read_op() for _ in range(workload.reads_per_reader)]
        )
    for i in range(workload.num_writers):
        pid = f"w{i}"
        handle = reg.writer(sim.spawn(pid))
        built.handles[pid] = handle
        values = [
            rng.randrange(1, 100) for _ in range(workload.writes_per_writer)
        ]
        sim.add_program(pid, [handle.write_max_op(v) for v in values])
    for a in range(workload.num_auditors):
        pid = f"a{a}"
        handle = reg.auditor(sim.spawn(pid))
        built.handles[pid] = handle
        sim.add_program(
            pid,
            [handle.audit_op() for _ in range(workload.audits_per_auditor)],
        )
    return built


@dataclass
class SnapshotWorkload:
    components: int = 2
    num_scanners: int = 2
    num_auditors: int = 1
    updates_per_component: int = 2
    scans_per_scanner: int = 3
    audits_per_auditor: int = 1
    seed: int = 0


def build_snapshot_system(
    workload: SnapshotWorkload,
    schedule: Optional[Schedule] = None,
    snapshot_substrate: str = "afek",
    runtime: Union[None, str, Any] = None,
) -> BuiltSystem:
    """An Algorithm 3 snapshot under the given workload."""
    schedule = schedule or RandomSchedule(workload.seed)
    sim = _runtime_host(runtime, schedule)
    snap = AuditableSnapshot(
        components=workload.components,
        num_scanners=workload.num_scanners,
        initial=0,
        pad=OneTimePadSequence(workload.num_scanners, seed=workload.seed),
        nonces=NonceSource(seed=workload.seed),
        snapshot_substrate=snapshot_substrate,
    )
    built = BuiltSystem(sim=sim, register=snap)
    rng = random.Random(stable_hash(workload.seed, "snapvals"))
    for i in range(workload.components):
        pid = f"u{i}"
        handle = snap.updater(sim.spawn(pid), i)
        built.updater_index[pid] = i
        built.handles[pid] = handle
        values = [
            rng.randrange(1, 100)
            for _ in range(workload.updates_per_component)
        ]
        sim.add_program(pid, [handle.update_op(v) for v in values])
    for j in range(workload.num_scanners):
        pid = f"s{j}"
        handle = snap.scanner(sim.spawn(pid), j)
        built.scanner_index[pid] = j
        built.handles[pid] = handle
        sim.add_program(
            pid, [handle.scan_op() for _ in range(workload.scans_per_scanner)]
        )
    for a in range(workload.num_auditors):
        pid = f"au{a}"
        handle = snap.auditor(sim.spawn(pid))
        built.handles[pid] = handle
        sim.add_program(
            pid,
            [handle.audit_op() for _ in range(workload.audits_per_auditor)],
        )
    return built
