"""The process backend: memory server, object registry, fault plans.

Cross-backend *equivalence* lives in ``test_rt_equivalence``; these
tests pin the backend's own machinery: name-based object resolution
(including lazily materialised array/matrix cells), the factory-based
program API and its pickling constraints, error propagation across the
process boundary, crash/delay bookkeeping, and the stress harness's
``runtime="process"`` path being validated by the unchanged oracles.

Every builder/factory here is module-level: the process runtime ships
them to workers by name, so a closure would fail under the spawn start
method (and defeat the point of the API).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import pytest

from repro.analysis import check_audit_exactness
from repro.memory.main_register import MainRegister
from repro.memory.register import CasRegister
from repro.memory.rword import RWord
from repro.rt import (
    FaultPlan,
    ObjectRegistry,
    PidRef,
    ProcessRuntime,
    Runtime,
    ScriptedFaultPlan,
    SeededFaultPlan,
    make_runtime,
    run_stress,
)
from repro.rt import process_runtime
from repro.rt.stress import PASS, build_stress_register, recorded_verdict
from repro.sim.event_log import load_event_log
from repro.sim.events import Invocation, Response
from repro.sim.process import Op
from repro.sim.scheduler import (
    CrashDecision,
    DelayDecision,
    DuplicateDecision,
    OmitDecision,
    PartitionDecision,
    RecoverDecision,
)

_START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


def _build_main():
    return MainRegister("m", RWord(0, "init", 0))


def _read_factory(main, pid, n=3):
    def read_gen():
        word = yield from main.read()
        return word.val

    return [Op("read", read_gen) for _ in range(n)]


def _boom_factory(main, pid):
    def boom():
        raise RuntimeError("kaboom")
        yield  # pragma: no cover - makes this a generator function

    return [Op("boom", boom)]


def _ghost_factory(main, pid):
    ghost = CasRegister("ghost", 0)

    def program():
        ok = yield from ghost.compare_and_swap(0, 1)
        return ok

    return [Op("ghost", program)]


def _source_factory(main, pid):
    def source():
        def read_gen():
            word = yield from main.read()
            return word.val

        return Op("read", read_gen)

    return source


# -- the runtime interface ---------------------------------------------------


def test_make_runtime_process_kind():
    rt = make_runtime("process", build=_build_main)
    assert isinstance(rt, ProcessRuntime)
    assert isinstance(rt, Runtime)
    assert rt.kind == "process"
    with pytest.raises(ValueError, match="picklable system builder"):
        make_runtime("process")


def test_add_program_rejects_closed_over_ops():
    """Op lists cannot cross the process boundary; the error says why."""
    rt = ProcessRuntime(_build_main)
    with pytest.raises(TypeError, match="add_program_factory"):
        rt.add_program("p", [])


def test_duplicate_pids_and_programs_rejected():
    rt = ProcessRuntime(_build_main)
    rt.spawn("p")
    with pytest.raises(ValueError, match="duplicate"):
        rt.spawn("p")
    rt.add_program_factory("p", _read_factory)
    with pytest.raises(ValueError, match="already has a program"):
        rt.add_source_factory("p", _source_factory)


def test_run_with_no_programs_returns_empty_history():
    rt = ProcessRuntime(_build_main)
    assert list(rt.run()) == []


def test_program_factory_runs_and_records():
    rt = ProcessRuntime(_build_main)
    rt.add_program_factory("p", _read_factory, args=(2,))
    history = rt.run()
    ops = history.complete_operations(name="read")
    assert [op.result for op in ops] == ["init", "init"]
    assert rt.steps_taken == len(history.primitive_events()) == 2
    assert not history.pending_operations()


def test_source_factory_honours_max_ops():
    rt = ProcessRuntime(_build_main)
    rt.add_source_factory("p", _source_factory, max_ops=5)
    history = rt.run()
    assert len(history.complete_operations(name="read")) == 5


def test_worker_errors_propagate_with_pid():
    rt = ProcessRuntime(_build_main)
    rt.add_program_factory("p", _boom_factory)
    with pytest.raises(RuntimeError, match="process 'p' failed"):
        rt.run()


def test_unknown_object_is_rejected_by_the_server():
    """A primitive on an object the server does not own fails loudly
    (with the unknown name in the error), not silently."""
    rt = ProcessRuntime(_build_main)
    rt.add_program_factory("p", _ghost_factory)
    with pytest.raises(RuntimeError, match="ghost"):
        rt.run()


@pytest.mark.skipif("fork" not in _START_METHODS, reason="needs fork")
def test_the_server_waits_through_the_conn_wait_seam(monkeypatch):
    """The memory server's only blocking wait is the module-level
    ``conn_wait``, the seam a tracer times: patched to fail before the
    fork, it fails the server, and the parent says so."""
    def broken(poller):
        raise RuntimeError("conn_wait seam")

    monkeypatch.setattr(process_runtime, "conn_wait", broken)
    rt = ProcessRuntime(_build_main, start_method="fork")
    rt.add_program_factory("p", _read_factory)
    with pytest.raises(RuntimeError, match="memory server failed"):
        rt.run()


def test_reply_before_record_keeps_each_process_in_protocol_order(tmp_path):
    """The server replies before it records a primitive, but records it
    before it reads the next message.  So each process's events stay in
    protocol order: invocation, that operation's primitives, response.
    The only primitives outside an open operation are duplicates, which
    re-apply the process's latest own primitive under its operation."""
    path = str(tmp_path / "chaos.jsonl")
    ops = 40
    report = run_stress(
        "register", threads=2, ops=ops, seed=3, runtime="process",
        faults="delay,partition,dup", fault_rate=3000, online=True,
        event_log=path, record_latency=False,
    )
    assert recorded_verdict(report.lin_status, report.audit_ok) == PASS
    events, clean, _ = load_event_log(path)
    assert clean
    duplicates = 0
    for pid in ("r0", "w0"):
        mine = [event for event in events if event.pid == pid]
        assert all(a.index < b.index for a, b in zip(mine, mine[1:]))
        open_op, completed, last_own = None, -1, None
        for event in mine:
            if isinstance(event, Invocation):
                assert open_op is None and event.op_id == completed + 1
                open_op, own = event.op_id, 0
            elif isinstance(event, Response):
                assert event.op_id == open_op and own > 0
                open_op, completed = None, event.op_id
            else:
                key = (event.op_id, event.obj_name, event.primitive,
                       event.args)
                if event.op_id == open_op:
                    own += 1
                    last_own = key
                else:
                    assert key == last_own
                    duplicates += 1
        assert open_op is None and completed == ops - 1
    assert duplicates > 0


# -- the object registry -----------------------------------------------------


def test_registry_walks_the_auditable_register():
    reg = build_stress_register("register", 2, 1, 0)
    registry = ObjectRegistry(reg)
    assert registry.resolve("areg.R") is reg.R
    assert registry.resolve("areg.SN") is reg.SN


def test_registry_resolves_lazy_cells_by_name():
    """Array/matrix cells materialise lazily with dynamic names; the
    registry must resolve (and then cache) them through the container."""
    reg = build_stress_register("register", 2, 1, 0)
    registry = ObjectRegistry(reg)
    cell = registry.resolve("areg.V[1]")
    assert cell is reg.V[1]
    assert registry.resolve("areg.V[1]") is cell  # cached
    bit = registry.resolve("areg.B[0][1]")
    assert bit is reg.B[0, 1]
    with pytest.raises(KeyError, match="nope"):
        registry.resolve("nope")
    with pytest.raises(KeyError):
        registry.resolve("nope[3]")


# -- fault plans --------------------------------------------------------------


def test_fault_plans_are_picklable():
    """Plans ship to the memory server at spawn; pickling is part of
    their contract."""
    for plan in (
        FaultPlan(),
        ScriptedFaultPlan({3: CrashDecision("p")}),
        SeededFaultPlan(7, crash_per_10k=100, delay_per_10k=50),
    ):
        clone = pickle.loads(pickle.dumps(plan))
        assert type(clone) is type(plan)


def test_delay_decision_validates_steps():
    with pytest.raises(ValueError):
        DelayDecision("p", steps=0)
    assert DelayDecision("p").steps >= 1


def test_seeded_fault_plan_roster_caps_crashes_exactly():
    """With a roster the crash cap is exact and stateless: only the
    ``max_crashes`` hash-ranked pids are ever crash-eligible, no matter
    how many requests arrive."""
    pids = ("p", "q", "r", "s")
    plan = SeededFaultPlan(0, crash_per_10k=10_000, max_crashes=2, pids=pids)
    victims = {
        decision.pid
        for step in range(1, 40)
        for pid in pids
        for decision in [plan.decide(step, pid, "m", "read")]
        if isinstance(decision, CrashDecision)
    }
    assert len(victims) == 2  # capped, despite certain-crash odds
    assert victims < set(pids)


def test_seeded_fault_plan_without_roster_keeps_cap_proportional():
    """Without a roster an exact global cap would need state; the plan
    degrades to a per-pid eligibility coin instead, so some pids crash
    and some never do."""
    plan = SeededFaultPlan(0, crash_per_10k=10_000, max_crashes=2)
    pids = [f"p{i}" for i in range(64)]
    victims = {
        pid for pid in pids
        if isinstance(plan.decide(1, pid, "m", "read"), CrashDecision)
    }
    assert 0 < len(victims) < len(pids)


def test_seeded_fault_plan_is_a_pure_value_across_pickling():
    """``decide`` is a pure function of (seed, step, pid): pickling the
    plan mid-stream and continuing on the clone must reproduce the
    original's decisions exactly.  The earlier stateful design consumed
    its crash budget inside ``decide``, so a mid-stream clone re-crashed
    from scratch — this pins the regression."""
    plan = SeededFaultPlan(
        3, crash_per_10k=3000, dup_per_10k=2000, omit_per_10k=1500,
        max_crashes=1, pids=("p", "q"),
    )
    coords = [(step, pid) for step in range(1, 40) for pid in ("p", "q")]
    split = len(coords) // 2
    head = [repr(plan.decide(s, p, "m", "read")) for s, p in coords[:split]]
    clone = pickle.loads(pickle.dumps(plan))
    tail = [repr(plan.decide(s, p, "m", "read")) for s, p in coords[split:]]
    assert [
        repr(clone.decide(s, p, "m", "read")) for s, p in coords[split:]
    ] == tail
    # Replaying the already-consumed prefix on the clone is equally
    # unaffected: there is no consumed set to have drifted.
    assert [
        repr(clone.decide(s, p, "m", "read")) for s, p in coords[:split]
    ] == head
    assert any(d != "None" for d in head + tail)


def test_scripted_match_rules_fire_once_in_order():
    crash = CrashDecision("r0")
    omit = OmitDecision("w0")
    plan = ScriptedFaultPlan(match=[
        (("r0", None, "fetch_xor"), crash),
        ((None, None, None), omit),
    ])
    # A non-matching arrival falls through to the wildcard rule.
    assert plan.decide(1, "w0", "areg.R", "write") is omit
    # The wildcard has fired; the first rule still waits for its match.
    assert plan.decide(2, "w0", "areg.R", "write") is None
    assert plan.decide(3, "r0", "areg.R", "read") is None
    assert plan.decide(4, "r0", "areg.R", "fetch_xor") is crash
    # Every rule fires at most once.
    assert plan.decide(5, "r0", "areg.R", "fetch_xor") is None


def test_scripted_index_keys_win_over_match_rules():
    keyed = DelayDecision("p", steps=2)
    matched = OmitDecision("p")
    plan = ScriptedFaultPlan(
        {1: keyed}, match=[(("p", None, None), matched)],
    )
    assert plan.decide(1, "p", "m", "read") is keyed
    # The index hit did not consume the match rule.
    assert plan.decide(2, "p", "m", "read") is matched


def test_scripted_match_pattern_shape_validated():
    with pytest.raises(ValueError, match="pid, obj_name, primitive"):
        ScriptedFaultPlan(match=[(("p", None), CrashDecision("p"))])


def test_crash_of_another_process_lands_at_its_next_primitive():
    """A decision naming a *different* pid dooms that process: it is
    crashed at its own next primitive request, not the decider's."""
    rt = ProcessRuntime(
        _build_main,
        faults=ScriptedFaultPlan({1: CrashDecision("q")}),
    )
    rt.add_program_factory("p", _read_factory, args=(4,))
    rt.add_program_factory("q", _read_factory, args=(4,))
    history = rt.run()
    assert rt.crashed == ("q",)
    pending = history.pending_operations()
    assert {op.pid for op in pending} == {"q"}
    # p was never crashed: all four of its operations completed.
    completed_by_p = [
        op for op in history.complete_operations() if op.pid == "p"
    ]
    assert len(completed_by_p) == 4


# -- fault families at the memory server --------------------------------------


def test_omitted_request_abandons_only_that_operation():
    """An omission drops exactly one request: the victim operation
    stays pending, the worker continues, and the decision does not
    re-fire on the next request (decisions key on the primitive-request
    arrival index, not the applied-step count)."""
    rt = ProcessRuntime(
        _build_main, faults=ScriptedFaultPlan({2: OmitDecision("p")}),
    )
    rt.add_program_factory("p", _read_factory, args=(3,))
    history = rt.run()
    assert len(history.complete_operations(name="read")) == 2
    assert [op.pid for op in history.pending_operations()] == ["p"]
    assert rt.steps_taken == 2
    assert rt.crashed == ()


def test_duplicate_replays_last_applied_under_original_operation():
    """A duplicate re-applies the victim's most recent primitive and
    records the extra application under the original operation — the
    history keeps matching true application order."""
    rt = ProcessRuntime(
        _build_main, faults=ScriptedFaultPlan({2: DuplicateDecision("p")}),
    )
    rt.add_program_factory("p", _read_factory, args=(2,))
    history = rt.run()
    # Both operations complete (the worker never sees the duplicate),
    # but the memory applied three primitives, two under op 0.
    assert len(history.complete_operations(name="read")) == 2
    assert rt.steps_taken == 3
    events = history.primitive_events(pid="p")
    assert len(events) == 3
    assert [event.op_id for event in events] == [0, 0, 1]


def test_partition_parks_then_heals_on_idle():
    """A partitioned process's requests are parked, not lost: once no
    other traffic remains the partition heals and the parked requests
    are served in arrival order."""
    rt = ProcessRuntime(
        _build_main,
        faults=ScriptedFaultPlan({1: PartitionDecision(("p",), steps=50)}),
    )
    rt.add_program_factory("p", _read_factory, args=(2,))
    history = rt.run()
    assert len(history.complete_operations(name="read")) == 2
    assert not history.pending_operations()
    assert rt.steps_taken == 2


def _solo_factory(reg, pid, rounds):
    # One worker as writer, reader and auditor of Algorithm 1: every
    # primitive family of the register crosses the channel.
    ref = PidRef(pid)
    writer, reader = reg.writer(ref), reg.reader(ref, 0)
    auditor = reg.auditor(ref)
    ops = []
    for k in range(rounds):
        ops.append(writer.write_op(f"v{k + 1}"))
        ops.append(reader.read_op())
        ops.append(auditor.audit_op())
    return ops


def _timed_run(rt):
    start = time.perf_counter()
    history = rt.run()
    return list(history), time.perf_counter() - start


def test_single_worker_delays_release_without_a_timer():
    """Every request delayed, one worker: each held request is released
    at once (the only live worker is blocked on it), so the run pays no
    wait — 50 ms per held request would cost over 10 s here — and the
    history is event-for-event the fault-free one."""
    delay_all = SeededFaultPlan(5, delay_per_10k=10_000)
    assert isinstance(delay_all.decide(1, "p", "m", "read"), DelayDecision)
    runs = []
    for faults in (None, delay_all):
        rt = ProcessRuntime(
            build_stress_register, ("register", 1, 1, 5), faults=faults,
        )
        rt.add_program_factory("p", _solo_factory, args=(16,))
        runs.append(_timed_run(rt))
    (clean, _), (delayed, elapsed) = runs
    assert rt.steps_taken >= 200
    assert elapsed < 2.0
    assert delayed == clean


def test_partitioned_pair_heals_without_a_timer():
    """Both workers partitioned at once, at every request, for far
    longer than the run: each time both are parked they are released
    together, so all 200 reads complete with no idle wait."""
    everyone = PartitionDecision(("p", "q"), steps=10**6)
    plan = ScriptedFaultPlan({step: everyone for step in range(1, 201)})
    rt = ProcessRuntime(_build_main, faults=plan)
    rt.add_program_factory("p", _read_factory, args=(100,))
    rt.add_program_factory("q", _read_factory, args=(100,))
    _, elapsed = _timed_run(rt)
    assert elapsed < 2.0
    assert len(rt.history.complete_operations(name="read")) == 200
    assert not rt.history.pending_operations()
    assert rt.steps_taken == 200


def test_recover_of_a_live_process_is_ignored():
    rt = ProcessRuntime(
        _build_main, faults=ScriptedFaultPlan({1: RecoverDecision("p")}),
    )
    rt.add_program_factory("p", _read_factory, args=(2,))
    history = rt.run()
    assert len(history.complete_operations(name="read")) == 2
    assert rt.crashed == ()


class _CrashThenRecover(FaultPlan):
    """Crash ``victim`` at its own first primitive request, then recover
    it at the first request from any *other* process — deterministic
    relative to arrival order, whatever that order is."""

    def __init__(self, victim):
        self.victim = victim
        self._crashed = False
        self._recovered = False

    def decide(self, step, pid, obj_name, primitive):
        if not self._crashed:
            if pid == self.victim:
                self._crashed = True
                return CrashDecision(self.victim)
            return None
        if not self._recovered and pid != self.victim:
            self._recovered = True
            return RecoverDecision(self.victim)
        return None


def test_recovered_process_restarts_and_finishes_its_program():
    """Crash-then-recover: the crashed operation stays pending forever,
    the worker rebuilds its replica from the picklable factories, and
    its remaining operations complete under fresh op ids."""
    rt = ProcessRuntime(_build_main, faults=_CrashThenRecover("p"))
    rt.add_program_factory("p", _read_factory, args=(3,))
    rt.add_program_factory("q", _read_factory, args=(30,))
    history = rt.run()
    assert rt.crashed == ("p",)
    pending = history.pending_operations()
    assert [(op.pid, op.op_id) for op in pending] == [("p", 0)]
    by_p = [op for op in history.complete_operations() if op.pid == "p"]
    assert sorted(op.op_id for op in by_p) == [1, 2]
    by_q = [op for op in history.complete_operations() if op.pid == "q"]
    assert len(by_q) == 30


def test_match_rule_crashes_on_meaning_not_arrival_index():
    """Two racing workers can swap arrival indices; a match rule keys
    on the request itself, so the intended victim crashes regardless."""
    rt = ProcessRuntime(
        _build_main,
        faults=ScriptedFaultPlan(
            match=[(("p", None, "read"), CrashDecision("p"))],
        ),
    )
    rt.add_program_factory("p", _read_factory, args=(3,))
    rt.add_program_factory("q", _read_factory, args=(3,))
    history = rt.run()
    assert rt.crashed == ("p",)
    assert {op.pid for op in history.pending_operations()} == {"p"}
    by_q = [op for op in history.complete_operations() if op.pid == "q"]
    assert len(by_q) == 3


# -- fault determinism across start methods ------------------------------------


def _decision_grid(plan):
    return [
        repr(plan.decide(step, pid, "areg.R", "read"))
        for step in range(1, 25)
        for pid in ("p", "q", "r")
    ]


def _grid_worker(conn, plan):
    conn.send(_decision_grid(plan))
    conn.close()


@pytest.mark.parametrize("method", _START_METHODS)
def test_fault_plan_decides_identically_across_start_methods(method):
    """A plan pickled into a fork or spawn child decides exactly what
    the parent's instance decides: ``decide`` carries no state the
    process boundary could snapshot at the wrong moment."""
    ctx = multiprocessing.get_context(method)
    plan = SeededFaultPlan(
        11, crash_per_10k=2000, dup_per_10k=1500, omit_per_10k=1000,
        partition_per_10k=500, recover_per_10k=500, pids=("p", "q", "r"),
    )
    expected = _decision_grid(plan)
    assert any(d != "None" for d in expected)
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_grid_worker, args=(child, plan))
    proc.start()
    child.close()
    got = parent.recv()
    proc.join(30)
    assert got == expected


@pytest.mark.parametrize("method", _START_METHODS)
def test_scripted_faults_deterministic_across_start_methods(method):
    """The same scripted plan produces the same faulty history under
    fork and spawn: single-worker arrival order is program order, so
    the whole outcome is start-method independent."""
    rt = ProcessRuntime(
        _build_main,
        faults=ScriptedFaultPlan({2: OmitDecision("p")}),
        start_method=method,
    )
    rt.add_program_factory("p", _read_factory, args=(3,))
    history = rt.run()
    assert len(history.complete_operations(name="read")) == 2
    assert [op.pid for op in history.pending_operations()] == ["p"]
    assert rt.steps_taken == 2


# -- the stress harness on the process runtime --------------------------------


@pytest.mark.parametrize("obj", ["register", "max", "snapshot", "naive"])
def test_process_stress_objects_validate(obj):
    """Bounded process-runtime stress runs pass the unchanged oracles."""
    report = run_stress(obj, threads=4, ops=6, seed=1, runtime="process")
    assert report.runtime == "process"
    assert report.validated and report.ok
    assert report.lin_ok is True
    assert report.ops_completed == 4 * 6
    assert report.to_payload()["runtime"] == "process"


def test_process_stress_crash_fault_keeps_audit_exactness():
    """A crash mid-operation must not break the audit oracle: exactness
    is defined for histories with pending operations, and a parent-side
    replica of the register is enough to decode them."""
    from repro.rt.stress import stress_op_source

    build_args = ("register", 2, 1, 2)
    rt = ProcessRuntime(
        build_stress_register, build_args,
        faults=ScriptedFaultPlan({7: CrashDecision("w0")}),
    )
    roster = (
        ("r0", "reader", 0), ("r1", "reader", 1),
        ("w0", "writer", 0), ("a0", "auditor", 0),
    )
    for pid, role, index in roster:
        rt.add_source_factory(
            pid, stress_op_source, args=("register", 2, role, index),
            max_ops=6,
        )
    history = rt.run()
    assert rt.crashed == ("w0",)
    assert {op.pid for op in history.pending_operations()} <= {"w0"}
    replica = build_stress_register(*build_args)
    assert check_audit_exactness(history, replica) == []


def test_thread_stress_takes_crash_plans_but_not_message_families():
    # The thread runtime now injects crash/delay at the primitive
    # arrival point (tests/test_thread_faults.py); message-seam
    # families still require the memory server.
    report = run_stress(
        "register", threads=2, ops=2,
        faults=ScriptedFaultPlan({1: CrashDecision("w0")}),
        record_latency=False,
    )
    assert report.ok
    with pytest.raises(ValueError, match="process runtime"):
        run_stress(
            "register", threads=2, ops=2, faults="partition,omit",
        )


def test_pid_ref_is_a_minimal_handle():
    ref = PidRef("r3")
    assert ref.pid == "r3"
    assert pickle.loads(pickle.dumps(ref)).pid == "r3"
