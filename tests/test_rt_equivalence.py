"""Cross-backend equivalence: Simulation vs ThreadRuntime vs ProcessRuntime.

The runtime seam promises that algorithm code observes the same
primitive-memory interface on every backend.  For a *single-threaded*
program (one process) all backends execute the same sequential
computation, so the recorded histories must coincide event-for-event —
indices, arguments and results included — and every oracle must return
the same verdict.  Property tests drive random primitive sequences
through ``fetch&xor`` / ``CAS`` / ``swap`` on all backends and compare
results exactly.

Fault-injection regressions ride along: with a single process, a
scripted crash at the memory server must truncate the history at
exactly the same event the fault names (everything before it identical
to the fault-free run), and a scripted delay must be a pure no-op on
both real runtimes (the interpreter releases a held request as soon as
every live worker is blocked on one, so nothing can overtake it).  The
fault differential runs one scripted plan per family through the
shared :class:`~repro.faults.ArrivalInterpreter` on every backend that
supports the family — the simulator via a test-local schedule — and
requires event-for-event identical histories.  Its cross-pid cells
(doom, omission of another pid, recover) need two processes, so real
arrival order may differ between backends; they compare only the facts
that no arrival order can change.

Builders and program factories are module-level so the process backend
can ship them across the fork/spawn boundary by name; the sim and
thread backends call the very same functions in-process.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro._seeding import stable_hash
from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_history,
)
from repro.core.auditable_register import AuditableRegister
from repro.crypto.pad import OneTimePadSequence
from repro.faults import FAULT_FAMILIES, ArrivalInterpreter
from repro.memory.main_register import MainRegister
from repro.memory.register import CasRegister, SwapRegister
from repro.memory.rword import RWord
from repro.rt import (
    PidRef,
    ProcessRuntime,
    ScriptedFaultPlan,
    ThreadRuntime,
    make_runtime,
)
from repro.sim.events import CrashEvent
from repro.sim.process import Op
from repro.sim.scheduler import (
    CrashDecision,
    DelayDecision,
    DuplicateDecision,
    OmitDecision,
    PartitionDecision,
    RecoverDecision,
    Schedule,
)


def _eq_build(seed=0):
    """The shared object of the single-process program (deterministic)."""
    pad = OneTimePadSequence(2, seed=stable_hash("eq-pad", seed))
    return AuditableRegister(2, initial="v0", pad=pad)


def _eq_program_factory(reg, pid, seed=0):
    """One process exercising all three roles of Algorithm 1."""
    ref = PidRef(pid)
    reader = reg.reader(ref, 0)
    writer = reg.writer(ref)
    auditor = reg.auditor(ref)
    ops = []
    for k in range(4):
        ops.append(writer.write_op(f"v{k + 1}"))
        ops.append(reader.read_op())
        ops.append(auditor.audit_op())
    return ops


def _run_backend(kind, seed=0, faults=None):
    if kind == "process":
        runtime = ProcessRuntime(_eq_build, (seed,), faults=faults)
        runtime.add_program_factory("p", _eq_program_factory, args=(seed,))
        reg = _eq_build(seed)  # parent-side replica for the oracles
        history = runtime.run()
        return runtime, reg, {"p": 0}, history
    if kind == "sim" and faults is not None:
        runtime = make_runtime(kind, schedule=_ArrivalSchedule(faults))
    else:
        runtime = make_runtime(kind, seed=seed, faults=faults)
    reg = _eq_build(seed)
    runtime.spawn("p")
    runtime.add_program("p", _eq_program_factory(reg, "p", seed))
    history = runtime.run()
    return runtime, reg, {"p": 0}, history


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_single_process_histories_identical(seed):
    """Same program, all backends: event-for-event equal histories."""
    _, _, _, sim_history = _run_backend("sim", seed)
    _, _, _, thread_history = _run_backend("thread", seed)
    assert list(sim_history) == list(thread_history)


@pytest.mark.parametrize("seed", [0, 7])
def test_single_process_history_identical_on_process_backend(seed):
    """One worker process: server arrival order is program order, so the
    message-passing history equals the simulator's exactly."""
    _, _, _, sim_history = _run_backend("sim", seed)
    _, _, _, proc_history = _run_backend("process", seed)
    assert list(sim_history) == list(proc_history)


@pytest.mark.parametrize("seed", [0, 3])
def test_single_process_oracle_verdicts_identical(seed):
    """Lin + audit-exactness verdicts coincide across backends."""
    verdicts = {}
    for kind in ("sim", "thread", "process"):
        _, reg, reader_index, history = _run_backend(kind, seed)
        spec = auditable_register_spec("v0", reader_index)
        lin = check_history(history.operations(), spec).ok
        audit = not check_audit_exactness(history, reg)
        verdicts[kind] = (lin, audit)
    assert verdicts["sim"] == verdicts["thread"] == verdicts["process"]
    assert verdicts["sim"] == (True, True)


# -- fault-injection regressions (the schedule-decision seam) -----------------


def test_scripted_crash_truncates_history_at_the_named_primitive():
    """Crash at the k-th primitive arrival: the history is the fault-free
    prefix up to (excluding) that primitive, then a crash event, and the
    operation in flight stays pending."""
    crash_at = 5
    _, _, _, clean = _run_backend("process", seed=0)
    rt, _, _, crashed = _run_backend(
        "process", seed=0,
        faults=ScriptedFaultPlan({crash_at: CrashDecision("p")}),
    )
    events = list(crashed)
    assert isinstance(events[-1], CrashEvent)
    assert events[-1].pid == "p"
    assert rt.crashed == ("p",)
    assert [op.op_id for op in crashed.pending_operations()] != []
    # Everything before the crash matches the fault-free run exactly.
    assert events[:-1] == list(clean)[: len(events) - 1]
    # Exactly crash_at - 1 primitives were applied before the crash.
    assert len(crashed.primitive_events()) == crash_at - 1


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_scripted_delay_is_a_no_op_for_a_single_process(kind):
    """With one process there is no later arrival to reorder past, so a
    held request is released at once and the history is unchanged."""
    _, _, _, clean = _run_backend(kind, seed=1)
    _, _, _, delayed = _run_backend(
        kind, seed=1,
        faults=ScriptedFaultPlan({3: DelayDecision("p", steps=50)}),
    )
    assert list(clean) == list(delayed)


# -- the fault differential: one interpreter, every backend -------------------


class _ArrivalSchedule(Schedule):
    """Feed a simulation through the runtimes' interpreter.

    The first runnable process always steps next, so the arrival order
    is fixed.  Each primitive arrival is ruled on once by an
    :class:`~repro.faults.ArrivalInterpreter`; ``None`` steps the
    process, anything else is returned as the sim's fault decision.  A
    decision that leaves the request in flight (delay, partition, dup)
    consumes the step, and the next step applies the ruled request —
    exactly as the memory server serves a request after ruling on it.
    """

    def __init__(self, plan):
        self.interpreter = ArrivalInterpreter(plan, FAULT_FAMILIES)
        self._ruled = {}

    def choose(self, runnable, step_index):
        process = runnable[0]
        pending = process.pending
        if pending is None or pending is self._ruled.get(process.pid):
            return process
        self._ruled[process.pid] = pending
        decision = self.interpreter.arrive(
            process.pid, pending.obj.name, pending.primitive
        )
        return process if decision is None else decision


#: One scripted decision per family the single process can exercise
#: (recover needs a second process: see the cross-pid cells), and
#: whether it changes the fault-free history.
_FAMILY_SCRIPTS = {
    "crash": ({5: CrashDecision("p")}, True),
    "delay": ({3: DelayDecision("p", steps=50)}, False),
    "partition": ({3: PartitionDecision(("p",), steps=50)}, False),
    "dup": ({4: DuplicateDecision("p")}, True),
    "omit": ({5: OmitDecision("p")}, True),
}


def _runtimes_supporting(family):
    return [
        cls.kind
        for cls in (ThreadRuntime, ProcessRuntime)
        if family in cls.fault_families
    ]


@pytest.mark.parametrize("family", sorted(_FAMILY_SCRIPTS))
def test_fault_differential_histories_identical(family):
    """Same scripted plan, every backend supporting the family: the
    recorded histories coincide event-for-event."""
    script, changes = _FAMILY_SCRIPTS[family]
    backends = ["sim"] + _runtimes_supporting(family)
    histories = {
        kind: list(_run_backend(
            kind, seed=0, faults=ScriptedFaultPlan(script)
        )[3])
        for kind in backends
    }
    for kind in backends[1:]:
        assert histories[kind] == histories["sim"], kind
    clean = list(_run_backend("sim", seed=0)[3])
    assert (histories["sim"] != clean) is changes


def _pair_program_factory(reg, pid):
    """Two processes of Algorithm 1: ``p`` writes three values, ``q``
    reads three times."""
    ref = PidRef(pid)
    if pid == "p":
        writer = reg.writer(ref)
        return [writer.write_op(f"v{k + 1}") for k in range(3)]
    reader = reg.reader(ref, 0)
    return [reader.read_op() for _ in range(3)]


def _run_pair(kind, plan):
    if kind == "process":
        runtime = ProcessRuntime(_eq_build, (0,), faults=plan)
        for pid in ("p", "q"):
            runtime.add_program_factory(pid, _pair_program_factory)
        return runtime.run()
    if kind == "sim":
        runtime = make_runtime(kind, schedule=_ArrivalSchedule(plan))
    else:
        runtime = make_runtime(kind, faults=plan)
    reg = _eq_build(0)
    for pid in ("p", "q"):
        runtime.spawn(pid)
        runtime.add_program(pid, _pair_program_factory(reg, pid))
    return runtime.run()


#: The cross-pid cells: (family, match rules, expected facts).  The
#: facts are the crashed pids, the pids of pending operations and the
#: completed operations per pid (``q``'s left out where arrival order
#: decides it).  Each plan pins its outcome under any arrival order:
#:
#: - doom: ``p``'s first arrival crashes ``q``.  Should ``q`` arrive
#:   first, it is held until ``p`` finishes; its held request is applied
#:   unruled, and its next arrival is the doomed one.
#: - omit-other: an omission naming another pid is ignored.
#: - recover: ``q`` crashes at its first arrival and ``p``'s second
#:   recovers it.  ``p``'s first arrival severs ``p`` itself, so ``p``
#:   cannot run ahead while ``q`` is live and unheld.
_CROSS_PID_SCRIPTS = {
    "doom": ("crash", [
        (("q", None, None), DelayDecision("q", steps=10**6)),
        (("p", None, None), CrashDecision("q")),
    ], (["q"], ["q"], {"p": 3})),
    "omit-other": ("omit", [
        (("p", None, None), OmitDecision("q")),
    ], ([], [], {"p": 3, "q": 3})),
    "recover": ("recover", [
        (("p", None, None), PartitionDecision(("p",), steps=10**6)),
        (("q", None, None), CrashDecision("q")),
        (("p", None, None), RecoverDecision("q")),
    ], (["q"], ["q"], {"p": 3, "q": 2})),
}


@pytest.mark.parametrize("cell", sorted(_CROSS_PID_SCRIPTS))
def test_fault_differential_cross_pid_facts(cell):
    """Two processes, one cross-pid plan, every backend supporting its
    family: the order-independent facts coincide."""
    family, rules, (crashed, pending, complete) = _CROSS_PID_SCRIPTS[cell]
    for kind in ["sim"] + _runtimes_supporting(family):
        history = _run_pair(kind, ScriptedFaultPlan(match=rules))
        done = Counter(op.pid for op in history.complete_operations())
        assert [
            event.pid for event in history if isinstance(event, CrashEvent)
        ] == crashed, kind
        assert [op.pid for op in history.pending_operations()] == pending
        assert {pid: done[pid] for pid in complete} == complete, kind


def test_fault_differential_cells():
    """The cell table the differential covers, derived from the runtime
    classes' support tables: every family has a cell."""
    cells = {fam: _runtimes_supporting(fam) for fam in _FAMILY_SCRIPTS}
    cells.update(
        (cell, _runtimes_supporting(family))
        for cell, (family, _, _) in _CROSS_PID_SCRIPTS.items()
    )
    assert cells == {
        "crash": ["thread", "process"],
        "delay": ["thread", "process"],
        "partition": ["process"],
        "dup": ["process"],
        "omit": ["process"],
        "doom": ["thread", "process"],
        "omit-other": ["process"],
        "recover": ["process"],
    }
    families = {family for family, _, _ in _CROSS_PID_SCRIPTS.values()}
    assert set(_FAMILY_SCRIPTS) | families == set(FAULT_FAMILIES)


# -- primitive-level property tests ------------------------------------------


def _trace_objects():
    """Three objects mixing all primitive families (picklable builder)."""
    return {
        "m": MainRegister("m", RWord(0, "init", 0)),
        "c": CasRegister("c", 0),
        "s": SwapRegister("s", "a"),
    }


def _trace_program(objects, seed):
    """A seeded random sequence of fetch&xor / CAS / swap primitives.

    The operation returns its result list; the generator mixes all three
    primitive families on three objects so cross-object ordering is
    exercised too.
    """
    main, cas, swap = objects["m"], objects["c"], objects["s"]

    def program():
        rng = random.Random(stable_hash("rt-prop", seed))
        results = []
        last_word = None
        for step in range(30):
            choice = rng.randrange(5)
            if choice == 0:
                last_word = yield from main.read()
                results.append(("m.read", last_word))
            elif choice == 1:
                word = yield from main.fetch_xor(1 << rng.randrange(3))
                results.append(("m.fetch_xor", word))
            elif choice == 2 and last_word is not None:
                new = RWord(
                    last_word.seq + 1, f"v{step}", rng.getrandbits(3)
                )
                ok = yield from main.compare_and_swap(last_word, new)
                results.append(("m.cas", ok))
            elif choice == 3:
                ok = yield from cas.compare_and_swap(
                    rng.randrange(3), rng.randrange(10)
                )
                results.append(("c.cas", ok))
            else:
                old = yield from swap.swap(f"s{step}")
                results.append(("s.swap", old))
        return tuple(results)

    return [Op("trace", program)]


def _trace_factory(objects, pid, seed):
    """Process-backend program factory (module-level, hence picklable)."""
    return _trace_program(objects, seed)


def _trace_views(history):
    (op,) = history.complete_operations(name="trace")
    return op.result, [e.view() for e in history.primitive_events(pid="p")]


def _primitive_trace(runtime, seed):
    runtime.spawn("p")
    runtime.add_program("p", _trace_program(_trace_objects(), seed))
    return _trace_views(runtime.run())


def _primitive_trace_process(seed):
    rt = ProcessRuntime(_trace_objects)
    rt.add_program_factory("p", _trace_factory, args=(seed,))
    return _trace_views(rt.run())


@pytest.mark.parametrize("seed", range(8))
def test_primitive_results_match_across_backends(seed):
    """fetch&xor / CAS / swap return identical results on both backends."""
    sim_result, sim_views = _primitive_trace(make_runtime("sim"), seed)
    thread_result, thread_views = _primitive_trace(ThreadRuntime(), seed)
    assert sim_result == thread_result
    assert sim_views == thread_views


@pytest.mark.parametrize("seed", range(3))
def test_primitive_results_match_on_process_backend(seed):
    """The same traces replay identically over the message channel."""
    sim_result, sim_views = _primitive_trace(make_runtime("sim"), seed)
    proc_result, proc_views = _primitive_trace_process(seed)
    assert sim_result == proc_result
    assert sim_views == proc_views
