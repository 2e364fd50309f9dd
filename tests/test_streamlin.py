"""The streaming linearizability checker against the batch oracle.

``StreamingLinChecker`` must agree with batch ``check_history`` on
every history either can decide — the same differential discipline
``test_fastlin.py`` applies between fastlin and the legacy reference,
one level up.  Plus the properties only a streaming checker has:
adversarial arrival orders, rolling frontiers, bounded residency on
histories much longer than the window, and budget degradation to
UNDECIDED (never a wrong verdict, never a crash).
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.analysis.fastlin import (
    LIN_FAIL,
    LIN_OK,
    LIN_UNDECIDED,
    check_history,
)
from repro.analysis.specs import (
    auditable_max_register_spec,
    auditable_register_spec,
    counter_object_spec,
    max_register_spec,
    register_array_spec,
    register_spec,
    snapshot_spec,
    versioned_spec,
)
from repro.analysis.streamlin import (
    LIN_PARTIAL,
    StreamingLinChecker,
    check_history_streaming,
)
from repro.core.versioned import counter_spec, logical_clock_spec
from repro.sim.events import CrashEvent, Invocation, Response
from repro.sim.history import OperationRecord

from test_fastlin import random_array_history, random_register_history


def assert_stream_matches_batch(ops, spec, seed, *, windows=(1, 4, 64)):
    """Both oracles must return the same status on the same history."""
    batch = check_history(ops, spec)
    for window in windows:
        stream = check_history_streaming(ops, spec, window=window)
        assert stream.status == batch.status, (
            f"seed {seed} window {window}: "
            f"batch={batch.status} stream={stream.status} for {ops}"
        )
    return batch


# ---------------------------------------------------------------------
# Random history generators (audit-bearing specs)
# ---------------------------------------------------------------------

def random_max_history(rng, procs=3, max_ops=8):
    ops = random_register_history(rng, procs=procs, max_ops=max_ops)
    for record in ops:
        if record.name == "write":
            record.name = "write_max"
    return ops


def random_counter_history(rng, procs=3, max_ops=8):
    ops = random_register_history(
        rng, procs=procs, max_ops=max_ops, values=(0, 1, 2, 3)
    )
    for record in ops:
        if record.name == "write":
            record.name = "update"
    return ops


def random_audited_history(rng, procs=3, max_ops=8, monotone=False):
    """Tagged reads + audits against the full auditable specs.

    Audit results are sampled from plausible pair sets (sometimes
    empty, sometimes the exact set of values read so far), so both
    verdict polarities occur.
    """
    ops = random_register_history(rng, procs=procs, max_ops=max_ops)
    values_seen = set()
    for record in ops:
        if record.name == "write" and monotone:
            record.name = "write_max"
        elif record.name == "read":
            record.args = (record.pid,)
            if record.result is not None:
                j = int(record.pid[1:])
                values_seen.add((j, record.result))
    # Turn a few reads into audits reporting a random plausible set.
    for record in ops:
        if record.name == "read" and record.is_complete and rng.random() < 0.3:
            record.name = "audit"
            record.args = ()
            pool = sorted(values_seen)
            record.result = frozenset(
                p for p in pool if rng.random() < 0.5
            )
    return ops


def random_snapshot_history(rng, components=2, procs=3, max_ops=8):
    updater_index = {f"p{i}": i % components for i in range(procs)}
    ops = []
    clock = 0
    view = (0,) * components
    for n in range(rng.randrange(2, max_ops + 1)):
        p = rng.randrange(procs)
        pid = f"p{p}"
        kind = rng.random()
        if kind < 0.5:
            value = rng.randrange(3)
            i = updater_index[pid]
            view = view[:i] + (value,) + view[i + 1:]
            ops.append(OperationRecord(
                pid=pid, op_id=n, name="update",
                args=(value, pid), invoke_index=clock,
                response_index=clock + 1,
            ))
        else:
            # Mostly the true view, sometimes a corrupted one.
            result = view
            if rng.random() < 0.2:
                result = tuple(rng.randrange(3) for _ in range(components))
            ops.append(OperationRecord(
                pid=pid, op_id=n, name="scan",
                args=(pid,), invoke_index=clock,
                response_index=clock + 1, result=result,
            ))
        clock += 2
    return ops, updater_index


def random_versioned_history(rng, type_spec, procs=3, max_ops=8):
    ops = random_counter_history(rng, procs=procs, max_ops=max_ops)
    for record in ops:
        if record.name == "update":
            record.args = (rng.randrange(1, 3),)
        elif record.name == "read":
            record.args = (record.pid,)
    return ops


# ---------------------------------------------------------------------
# Differential: streaming verdict == batch verdict, every spec family
# ---------------------------------------------------------------------

class TestDifferential:
    def test_register(self):
        accepted = rejected = 0
        for seed in range(200):
            rng = random.Random(seed)
            ops = random_register_history(rng)
            result = assert_stream_matches_batch(ops, register_spec(0), seed)
            accepted += result.status == LIN_OK
            rejected += result.status == LIN_FAIL
        assert accepted > 20 and rejected > 20

    def test_max_register(self):
        for seed in range(150):
            rng = random.Random(seed)
            ops = random_max_history(rng)
            assert_stream_matches_batch(ops, max_register_spec(0), seed)

    def test_counter(self):
        for seed in range(150):
            rng = random.Random(seed)
            ops = random_counter_history(rng)
            assert_stream_matches_batch(ops, counter_object_spec(), seed)

    def test_register_array_partitioned(self):
        """The partitioned streaming path against the batch checker
        (itself partitioned -- and differentially tied to the global
        path by test_fastlin)."""
        accepted = rejected = 0
        for seed in range(200):
            rng = random.Random(seed)
            ops = random_array_history(rng)
            result = assert_stream_matches_batch(
                ops, register_array_spec(0), seed
            )
            accepted += result.status == LIN_OK
            rejected += result.status == LIN_FAIL
        assert accepted > 20 and rejected > 20

    def test_auditable_register(self):
        reader_index = {f"p{i}": i for i in range(3)}
        for seed in range(150):
            rng = random.Random(seed)
            ops = random_audited_history(rng)
            assert_stream_matches_batch(
                ops, auditable_register_spec(0, reader_index), seed
            )

    def test_auditable_max_register(self):
        reader_index = {f"p{i}": i for i in range(3)}
        for seed in range(150):
            rng = random.Random(seed)
            ops = random_audited_history(rng, monotone=True)
            assert_stream_matches_batch(
                ops, auditable_max_register_spec(0, reader_index), seed
            )

    def test_snapshot_unpartitioned(self):
        accepted = rejected = 0
        for seed in range(150):
            rng = random.Random(seed)
            ops, updater_index = random_snapshot_history(rng)
            result = assert_stream_matches_batch(
                ops, snapshot_spec(2, 0, updater_index), seed
            )
            accepted += result.status == LIN_OK
            rejected += result.status == LIN_FAIL
        assert accepted > 10 and rejected > 10

    @pytest.mark.parametrize(
        "type_spec", [counter_spec(), logical_clock_spec()],
        ids=lambda s: s.name,
    )
    def test_versioned(self, type_spec):
        reader_index = {f"p{i}": i for i in range(3)}
        for seed in range(100):
            rng = random.Random(seed)
            ops = random_versioned_history(rng, type_spec)
            assert_stream_matches_batch(
                ops, versioned_spec(type_spec, reader_index), seed
            )

    def test_pending_operations(self):
        """Histories whose tails never respond: streaming PENDING
        completion must match the batch checker's."""
        pending_seen = 0
        for seed in range(150):
            rng = random.Random(seed + 5000)
            ops = random_register_history(rng, procs=4, max_ops=10)
            # Force more pending tails than the generator's default.
            for record in ops:
                if record.is_complete and rng.random() < 0.2:
                    record.response_index = None
                    record.result = None
            pending_seen += any(not o.is_complete for o in ops)
            assert_stream_matches_batch(ops, register_spec(0), seed)
        assert pending_seen > 50


class TestAdversarialOrderings:
    """Wide overlap and late responses: every op invokes before any
    responds, so nothing can retire until responses start landing."""

    def make_burst(self, rng, procs=6):
        ops = []
        clock = 0
        for p in range(procs):
            if rng.random() < 0.5:
                ops.append(OperationRecord(
                    pid=f"p{p}", op_id=0, name="write",
                    args=(rng.randrange(3),), invoke_index=clock,
                ))
            else:
                ops.append(OperationRecord(
                    pid=f"p{p}", op_id=0, name="read",
                    args=(), invoke_index=clock,
                ))
            clock += 1
        order = list(ops)
        rng.shuffle(order)
        for record in order:
            record.response_index = clock
            clock += 1
            if record.name == "read":
                record.result = rng.randrange(3)
        return ops

    def test_all_invoke_then_all_respond(self):
        for seed in range(100):
            rng = random.Random(seed)
            ops = self.make_burst(rng)
            assert_stream_matches_batch(
                ops, register_spec(0), seed, windows=(4,)
            )

    def test_late_responses_keep_residency_until_the_cut(self):
        """An op that stays open pins every concurrent completed op in
        residency; its response releases them all."""
        checker = StreamingLinChecker(register_spec(0))
        # p0 opens and stays open across p1's entire run of writes.
        checker.feed(Invocation(0, "p0", 0, "read", ()))
        for n in range(20):
            checker.feed(Invocation(2 * n + 1, "p1", n, "write", (n,)))
            checker.feed(Response(2 * n + 2, "p1", n, "write", None))
        progress = checker.progress()
        assert progress.ops_retired == 0
        assert progress.resident_ops == 21
        assert progress.frontier_index == -1  # nothing verified yet
        checker.feed(Response(43, "p0", 0, "read", 19))
        assert checker.progress().ops_retired == 21
        assert checker.finish().ok

    def test_unknown_response_rejected(self):
        checker = StreamingLinChecker(register_spec(0))
        with pytest.raises(ValueError):
            checker.feed(Response(0, "ghost", 0, "read", 1))

    def test_crash_event_keeps_op_pending(self):
        """A crashed op never responds: it must not block a FAIL-free
        finish, and PENDING semantics must apply to it."""
        checker = StreamingLinChecker(register_spec(0))
        checker.feed(Invocation(0, "w", 0, "write", (1,)))
        checker.feed(CrashEvent(1, "w", 0))
        checker.feed(Invocation(2, "r", 0, "read", ()))
        checker.feed(Response(3, "r", 0, "read", 1))
        verdict = checker.finish()
        assert verdict.ok  # write linearized before the read (PENDING)

    def test_crashed_write_cannot_be_required(self):
        checker = StreamingLinChecker(register_spec(0))
        checker.feed(Invocation(0, "r", 0, "read", ()))
        checker.feed(Response(1, "r", 0, "read", 7))  # nothing wrote 7
        checker.feed(Invocation(2, "w", 0, "write", (7,)))
        checker.feed(CrashEvent(3, "w", 0))
        assert checker.finish().status == LIN_FAIL


class TestFrontier:
    def test_frontier_advances_to_last_event(self):
        checker = StreamingLinChecker(register_spec(0), window=4)
        clock = 0
        for n in range(50):
            checker.feed(Invocation(clock, "p", n, "write", (n,)))
            clock += 1
            checker.feed(Response(clock, "p", n, "write", None))
            clock += 1
        progress = checker.progress()
        assert progress.frontier_index == clock - 1
        assert progress.ops_retired == 50
        assert progress.resident_ops == 0
        verdict = checker.finish()
        assert verdict.ok
        assert verdict.progress.frontier_index == clock - 1

    def test_an_idle_partition_does_not_hold_the_frontier(self):
        """Cell "a" goes quiet after one write; the frontier must still
        follow cell "b" to the last event."""
        checker = StreamingLinChecker(register_array_spec(0), window=4)
        checker.feed(Invocation(0, "p", 0, "write", ("a", 1)))
        checker.feed(Response(1, "p", 0, "write", None))
        clock = 2
        for n in range(1, 20):
            checker.feed(Invocation(clock, "p", n, "write", ("b", n)))
            clock += 1
            checker.feed(Response(clock, "p", n, "write", None))
            clock += 1
        assert checker.progress().partitions == 2
        assert checker.progress().frontier_index == clock - 1
        assert checker.finish().progress.frontier_index == clock - 1

    def test_fail_is_proven_online(self):
        """A violation must surface in progress before finish()."""
        checker = StreamingLinChecker(register_spec(0))
        checker.feed(Invocation(0, "w", 0, "write", (1,)))
        checker.feed(Response(1, "w", 0, "write", None))
        checker.feed(Invocation(2, "r", 0, "read", ()))
        checker.feed(Response(3, "r", 0, "read", 99))
        assert checker.partial().status == LIN_FAIL
        assert checker.finish().status == LIN_FAIL

    def test_partial_before_finish(self):
        checker = StreamingLinChecker(register_spec(0))
        checker.feed(Invocation(0, "w", 0, "write", (1,)))
        checker.feed(Response(1, "w", 0, "write", None))
        assert checker.partial().status == LIN_PARTIAL
        assert checker.finish().status == LIN_OK

    def test_progress_payload_is_structured(self):
        checker = StreamingLinChecker(register_spec(0))
        checker.feed(Invocation(0, "w", 0, "write", (1,)))
        checker.feed(Response(1, "w", 0, "write", None))
        payload = checker.progress().to_payload()
        for key in (
            "events", "ops_started", "ops_completed", "ops_retired",
            "resident_ops", "peak_resident_ops", "frontier_index",
            "windows", "undecided_windows", "explored", "partitions",
        ):
            assert key in payload, key


class TestMemoryBound:
    """The regression the tentpole exists for: residency must track the
    overlap width of the stream, not its length."""

    def run_long(self, total_ops, procs=4, window=256):
        rng = random.Random(9)
        checker = StreamingLinChecker(register_spec(0), window=window)
        state = 0
        clock = 0
        open_ops = {}
        counts = {p: 0 for p in range(procs)}
        done = 0
        while done < total_ops:
            p = rng.randrange(procs)
            if p in open_ops:
                name, args = open_ops.pop(p)
                result = state if name == "read" else None
                if name == "write":
                    state = args[0]
                checker.feed(Response(
                    clock, f"p{p}", counts[p], name, result
                ))
                counts[p] += 1
                clock += 1
                done += 1
            else:
                if rng.random() < 0.5:
                    op = ("write", (rng.randrange(5),))
                else:
                    op = ("read", ())
                open_ops[p] = op
                checker.feed(Invocation(
                    clock, f"p{p}", counts[p], op[0], op[1]
                ))
                clock += 1
        for p, (name, args) in sorted(open_ops.items()):
            result = state if name == "read" else None
            checker.feed(Response(clock, f"p{p}", counts[p], name, result))
            clock += 1
        assert checker.finish().ok
        return checker.progress().peak_resident_ops

    def test_peak_residency_is_bounded_by_overlap_not_length(self):
        window = 256
        short = self.run_long(2_000, window=window)
        long = self.run_long(20_000, window=window)
        # History is 10x the window and 10x the short run; residency
        # tracks overlap width (a few dozen ops here), not length.
        assert long <= 48, long
        assert long <= short + 16, (short, long)

    def test_everything_retires_on_a_clean_stream(self):
        checker = StreamingLinChecker(register_spec(0), window=64)
        clock = 0
        for n in range(5_000):
            checker.feed(Invocation(clock, "p", n, "write", (n,)))
            clock += 1
            checker.feed(Response(clock, "p", n, "write", None))
            clock += 1
        progress = checker.progress()
        assert progress.ops_retired == 5_000
        assert progress.resident_ops == 0
        assert progress.peak_resident_ops <= 2


class TestBudgets:
    def test_node_budget_degrades_to_undecided(self):
        """Exhausting the per-window node budget must yield UNDECIDED
        (with the window counted), never a wrong verdict or a crash."""
        rng = random.Random(3)
        checker = StreamingLinChecker(
            register_spec(0), window=4, max_nodes_per_window=2
        )
        ops = random_register_history(rng, procs=4, max_ops=12)
        checker.feed_operations(ops)
        verdict = checker.finish()
        if verdict.status == LIN_UNDECIDED:
            assert verdict.progress.undecided_windows >= 1
        else:
            assert verdict.status in (LIN_OK, LIN_FAIL)

    def test_config_budget_degrades_to_undecided(self):
        checker = StreamingLinChecker(register_spec(0), max_configs=1)
        # Two concurrent writes force two configurations.
        checker.feed(Invocation(0, "a", 0, "write", (1,)))
        checker.feed(Invocation(1, "b", 0, "write", (2,)))
        checker.feed(Response(2, "a", 0, "write", None))
        checker.feed(Response(3, "b", 0, "write", None))
        assert checker.finish().status == LIN_UNDECIDED

    def test_cap_is_judged_after_the_forced_cut(self):
        """The last response's closure holds five configurations, but
        nothing is left open, so its cut keeps only the two full ones:
        a cap of two must not cut a stream that never holds more."""
        events = [
            Invocation(0, "a", 0, "write", (1,)),
            Invocation(1, "b", 0, "write", (2,)),
            Response(2, "a", 0, "write", None),
            Response(3, "b", 0, "write", None),
        ]
        checker = StreamingLinChecker(register_spec(0), max_configs=2)
        for event in events:
            checker.feed(event)
        verdict = checker.finish()
        assert (verdict.status, verdict.budget) == (LIN_OK, None)
        assert verdict.progress.ops_retired == 2

    def test_two_open_ops_across_a_burst_still_hit_the_cap(self):
        """Two writes stay open across a burst of 20 reads of the
        initial value.  The burst holds a 21-configuration chain; the
        first write's response adds it again with the write inserted,
        and the other write, still open, lets nothing retire: 42
        resident configurations are over a cap of 30, although the
        second response would have cut them back to two."""
        events = [
            Invocation(0, "v", 0, "write", (1,)),
            Invocation(1, "w", 0, "write", (2,)),
        ]
        for j in range(20):
            events.append(Invocation(2 + 2 * j, "r", j, "read", ()))
            events.append(Response(3 + 2 * j, "r", j, "read", 0))
        events.append(Response(42, "v", 0, "write", None))
        events.append(Response(43, "w", 0, "write", None))
        for cap, status in ((30, LIN_UNDECIDED), (42, LIN_OK)):
            checker = StreamingLinChecker(register_spec(0), max_configs=cap)
            for event in events[:-2]:
                checker.feed(event)
            assert checker.partial().budget is None, cap
            for event in events[-2:]:
                checker.feed(event)
            verdict = checker.finish()
            assert verdict.status == status, cap
            assert verdict.budget == (
                "max_configs" if status == LIN_UNDECIDED else None
            )

    def test_dead_partition_frontier_stalls(self):
        checker = StreamingLinChecker(register_spec(0), max_configs=1)
        checker.feed(Invocation(0, "a", 0, "write", (1,)))
        checker.feed(Invocation(1, "b", 0, "write", (2,)))
        checker.feed(Response(2, "a", 0, "write", None))
        checker.feed(Response(3, "b", 0, "write", None))
        stalled = checker.progress().frontier_index
        checker.feed(Invocation(4, "a", 1, "write", (3,)))
        checker.feed(Response(5, "a", 1, "write", None))
        assert checker.progress().frontier_index == stalled

    def test_budget_never_lies_on_decidable_histories(self):
        """With budgets tight enough to trip sometimes, any decided
        verdict must still equal the batch oracle's."""
        disagreements = []
        undecided = 0
        for seed in range(100):
            rng = random.Random(seed)
            ops = random_register_history(rng, procs=4, max_ops=10)
            stream = check_history_streaming(
                ops, register_spec(0), window=2, max_nodes_per_window=16
            )
            if stream.status == LIN_UNDECIDED:
                undecided += 1
                continue
            batch = check_history(ops, register_spec(0))
            if stream.status != batch.status:
                disagreements.append(seed)
        assert not disagreements


# -- the audit partition of the streaming specs -------------------------------


def _audited_sim_events(object_kind, seed, ops=10, writers=None):
    """A stress-roster run with one auditor on the simulator: the
    decoded events and the hello meta ``repro serve`` rebuilds from.
    ``writers`` defaults to 2 for the snapshot and 1 otherwise."""
    from repro.rt.stress import (
        _stress_pids,
        build_stress_register,
        stress_op_source,
    )
    from repro.sim.runner import Simulation
    from repro.sim.scheduler import RandomSchedule

    if writers is None:
        writers = 2 if object_kind == "snapshot" else 1
    r, w, a = 2, writers, 1
    reg = build_stress_register(object_kind, r, w, seed)
    sim = Simulation(RandomSchedule(seed))
    events = []
    sim.history.stream_to(events.append, retain=False)
    for pid, role, index in _stress_pids(object_kind, r, w, a):
        sim.spawn(pid)
        source = stress_op_source(reg, pid, object_kind, seed, role, index)
        sim.add_program(pid, [source() for _ in range(ops)])
    sim.run()
    meta = {"kind": "stress", "object": object_kind,
            "r": r, "w": w, "a": a, "seed": seed}
    return events, meta


def _partitioned_and_whole_verdicts(events, meta):
    """``(lin, audit, status)`` of the stress validator, and of the
    same validator with the audit partition switched off."""
    from dataclasses import replace

    from repro.rt.stress import validator_from_meta
    from repro.rt.stress import StreamValidator

    partitioned = validator_from_meta(meta)
    assert partitioned.members[0].spec.partition_key is not None
    checker, *oracles = validator_from_meta(meta).members
    whole = StreamValidator(
        replace(checker.spec, partition_key=None), *oracles
    )
    verdicts = []
    for validator in (partitioned, whole):
        for event in events:
            validator.feed(event)
        verdicts.append(validator.verdict())
    assert [v[3]["partitions"] for v in verdicts] == [2, 1]
    return verdicts


_OBSERVERS = {"register": "read", "max": "read", "snapshot": "scan"}
_INITIAL = {"register": "v0", "max": 0, "snapshot": (0, 0)}


def _stale_read(events, object_kind, rng):
    """Rewrite one read (scan) invoked after a write (update) of a
    fresh value completed to return the initial value: stale, so
    not linearizable."""
    from dataclasses import replace

    first_write = min(
        e.index for e in events
        if isinstance(e, Response)
        and e.op_name not in ("read", "scan", "audit")
    )
    invoked = {
        (e.pid, e.op_id): e.index for e in events
        if isinstance(e, Invocation)
    }
    candidates = [
        k for k, e in enumerate(events)
        if isinstance(e, Response)
        and e.op_name == _OBSERVERS[object_kind]
        and invoked[(e.pid, e.op_id)] > first_write
        and e.result != _INITIAL[object_kind]
    ]
    k = rng.choice(candidates)
    mutated = list(events)
    mutated[k] = replace(events[k], result=_INITIAL[object_kind])
    return mutated


def _short_audit(events, rng):
    """Drop one pair from one non-empty audit response."""
    from dataclasses import replace

    candidates = [
        k for k, e in enumerate(events)
        if isinstance(e, Response) and e.op_name == "audit" and e.result
    ]
    k = rng.choice(candidates)
    result = events[k].result
    mutated = list(events)
    mutated[k] = replace(
        events[k], result=result - {sorted(result, key=repr)[0]}
    )
    return mutated


class TestAuditPartition:
    """The streaming specs send audits to their own partition.  On
    real auditor-bearing logs the verdict must be the one the
    unpartitioned spec reaches, clean or mutated."""

    KINDS = ("register", "max", "snapshot")

    @pytest.mark.parametrize("object_kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_clean_log(self, object_kind, seed):
        events, meta = _audited_sim_events(object_kind, seed)
        partitioned, whole = _partitioned_and_whole_verdicts(events, meta)
        assert partitioned[:3] == whole[:3] == (True, True, LIN_OK)
        # The audit partition idles before the stream ends; it must
        # not hold the verified frontier back.
        frontiers = [v[3]["frontier_index"] for v in (partitioned, whole)]
        assert frontiers == [events[-1].index] * 2

    @pytest.mark.parametrize("object_kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stale_read_still_fails(self, object_kind, seed):
        events, meta = _audited_sim_events(object_kind, seed)
        events = _stale_read(events, object_kind, random.Random(seed))
        partitioned, whole = _partitioned_and_whole_verdicts(events, meta)
        assert partitioned[:3] == whole[:3] == (False, True, LIN_FAIL)

    @pytest.mark.parametrize("object_kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bad_audit_is_the_oracles_catch(self, object_kind, seed):
        events, meta = _audited_sim_events(object_kind, seed)
        events = _short_audit(events, random.Random(seed))
        partitioned, whole = _partitioned_and_whole_verdicts(events, meta)
        assert partitioned[:3] == whole[:3] == (True, False, LIN_OK)


# -- pinned progress: the closure's work, not just its verdict ----------------

#: Verdicts and full progress payloads recorded with the closure that
#: rescanned every configuration and every resident op on each
#: response.  The per-response closure must reproduce them exactly: the
#: same configurations, ``explored`` counts and budget cuts.
PINS = json.loads(
    (Path(__file__).parent / "streamlin_pins.json").read_text("utf-8")
)

#: ``validator_from_meta`` budgets of the pinned simulator logs; the
#: tight one cuts every log's read/write partition to UNDECIDED.
PIN_BUDGETS = {"default": {}, "tight": {"window": 16, "max_nodes": 40}}

BURST_READS = 200


def open_write_burst(k, read_result):
    """One write of 1 stays open while another process completes ``k``
    sequential reads, read ``j`` returning ``read_result(j)``: none of
    the reads can retire before the write responds, so the
    configurations grow into a chain of prefixes."""
    events = [Invocation(0, "w", 0, "write", (1,))]
    for j in range(k):
        events.append(Invocation(2 * j + 1, "r", j, "read", ()))
        events.append(Response(2 * j + 2, "r", j, "read", read_result(j)))
    events.append(Response(2 * k + 1, "w", 0, "write", None))
    return events


BURSTS = {
    # Every read sees the initial value: OK.
    "open-write": lambda j: 0,
    # One read sees the write, a later one the old value again: FAIL,
    # proven at the write's response.
    "stale-read": lambda j: 1 if j == BURST_READS // 3 else 0,
    # The write takes effect mid-burst: OK.
    "mid-burst-effect": lambda j: 1 if j >= BURST_READS // 2 else 0,
}


def _pin_row(verdict):
    return {"status": verdict.status, **verdict.progress.to_payload()}


def pinned_sim_row(object_kind, seed, budget):
    """The pinned verdict of one seeded simulator log (2 readers, 2
    writers, 1 auditor, 60 ops each) under one of ``PIN_BUDGETS``."""
    from repro.rt.stress import validator_from_meta

    events, meta = _audited_sim_events(object_kind, seed, ops=60, writers=2)
    checker = validator_from_meta(meta, **PIN_BUDGETS[budget]).members[0]
    for event in events:
        checker.feed(event)
    return _pin_row(checker.finish())


def pinned_burst_row(name, k=BURST_READS):
    checker = StreamingLinChecker(register_spec(0))
    for event in open_write_burst(k, BURSTS[name]):
        checker.feed(event)
    return _pin_row(checker.finish())


class TestPinnedProgress:
    @pytest.mark.parametrize("budget", sorted(PIN_BUDGETS))
    @pytest.mark.parametrize("object_kind", TestAuditPartition.KINDS)
    def test_simulator_logs(self, object_kind, budget):
        rows = {
            f"{object_kind}/{seed}/{budget}": pinned_sim_row(
                object_kind, seed, budget
            )
            for seed in range(30)
        }
        assert rows == {key: PINS["sim"][key] for key in rows}

    @pytest.mark.parametrize("name", sorted(BURSTS))
    def test_bursts(self, name):
        assert pinned_burst_row(name) == PINS["burst"][name]

    def test_stale_read_fails_at_the_writes_response(self):
        events = open_write_burst(BURST_READS, BURSTS["stale-read"])
        checker = StreamingLinChecker(register_spec(0))
        for event in events[:-1]:
            checker.feed(event)
        assert checker.partial().status == LIN_PARTIAL
        assert checker.progress().resident_ops == BURST_READS + 1
        checker.feed(events[-1])
        assert checker.partial().status == LIN_FAIL

    def test_open_write_burst_cost_is_linear(self):
        """The work per response must not grow with the burst: feeding
        4x the reads must cost well under 16x (the quadratic closure
        took about 17x)."""

        def fastest_feed(k):
            events = open_write_burst(k, BURSTS["open-write"])
            best = float("inf")
            for _ in range(5):
                checker = StreamingLinChecker(register_spec(0))
                start = time.perf_counter()
                for event in events:
                    checker.feed(event)
                best = min(best, time.perf_counter() - start)
            verdict = checker.finish()
            return best, [verdict.status, verdict.progress.explored]

        small, small_row = fastest_feed(500)
        large, large_row = fastest_feed(2000)
        assert small_row == PINS["scaling"]["500"]
        assert large_row == PINS["scaling"]["2000"]
        assert large < 8 * small, (small, large)


def _streamed_sim_run(object_kind, seed, tap, auditors=0, ops=60):
    """A stress-roster run on the simulator (1 reader and 1 writer, or
    2 readers, 1 writer and ``auditors`` auditors), streaming into
    ``tap`` without retention; returns the hello meta."""
    from repro.rt.stress import (
        _stress_pids,
        build_stress_register,
        stress_op_source,
    )
    from repro.sim.runner import Simulation
    from repro.sim.scheduler import RandomSchedule

    r, w, a = (2, 1, auditors) if auditors else (1, 1, 0)
    reg = build_stress_register(object_kind, r, w, seed)
    sim = Simulation(RandomSchedule(seed))
    sim.history.stream_to(tap, retain=False)
    for pid, role, index in _stress_pids(object_kind, r, w, a):
        sim.spawn(pid)
        source = stress_op_source(reg, pid, object_kind, seed, role, index)
        sim.add_program(pid, [source() for _ in range(ops)])
    sim.run()
    return {"kind": "stress", "object": object_kind,
            "r": r, "w": w, "a": a, "seed": seed}


class TestCountedPrimitives:
    """A streaming history builds a primitive event only for an object
    its tap reads and counts the rest into it; the verdict and the
    whole payload must be those of feeding it every event."""

    def assert_filtered_tap_matches_feeding_every_event(
        self, object_kind, auditors
    ):
        from repro.rt.stress import validator_from_meta

        for seed in range(15):
            events = []
            meta = _streamed_sim_run(
                object_kind, seed, events.append, auditors
            )
            # Every oracle fed every event, against the validator's
            # routing table and the history's filter.
            full, routed = validator_from_meta(meta), validator_from_meta(meta)
            for event in events:
                routed.feed(event)
                for oracle in full.members:
                    oracle.feed(event)
            filtered = validator_from_meta(meta)
            _streamed_sim_run(object_kind, seed, filtered, auditors)
            for validator in (routed, filtered):
                assert validator.verdict() == full.verdict(), seed
                # Counting rolls the audit windows at the same events.
                assert [
                    (o.events, len(o._base), o._compacted_to)
                    for o in validator.members[1:]
                ] == [
                    (o.events, len(o._base), o._compacted_to)
                    for o in full.members[1:]
                ], seed
            unread = [
                event for event in events
                if type(event).__name__ == "PrimitiveEvent"
                and event.obj_name not in filtered.reads
            ]
            assert unread, seed

    @pytest.mark.parametrize("object_kind", ["register", "max", "snapshot"])
    def test_counted_tap_matches_feeding_every_event(self, object_kind):
        self.assert_filtered_tap_matches_feeding_every_event(object_kind, 0)

    @pytest.mark.parametrize("object_kind", ["register", "max", "snapshot"])
    def test_audited_tap_matches_feeding_every_event(self, object_kind):
        self.assert_filtered_tap_matches_feeding_every_event(object_kind, 1)

    @pytest.mark.parametrize("object_kind", ["register", "max", "snapshot"])
    def test_oracle_bearing_validators_read_only_R(self, object_kind):
        from repro.rt.stress import build_stress_register, validator_from_meta

        meta = {"kind": "stress", "object": object_kind,
                "r": 1, "w": 1, "a": 1, "seed": 0}
        reg = build_stress_register(object_kind, 1, 1, 0)
        register = reg.M if object_kind == "snapshot" else reg
        assert validator_from_meta(meta).reads == {register.R.name}
        assert validator_from_meta(dict(meta, a=0)).reads == frozenset()

    def test_streaming_thread_history_keeps_no_op_record(self):
        """The bounded-memory claim of ``History``: while streaming, no
        operation record and no event is held at any point of a
        thread-runtime run."""
        from repro.rt.stress import _build, stress_meta, validator_from_meta

        meta = stress_meta("register", 1, 1, 0, seed=3)
        rt = _build(meta, 300, record_latency=False)
        history = rt.history
        validator = validator_from_meta(meta)
        sizes = set()
        counted = []

        class Tap:
            reads = validator.reads

            @staticmethod
            def feed(event):
                sizes.add((len(history._ops), len(history.events)))
                validator.feed(event)

            @staticmethod
            def count(index):
                sizes.add((len(history._ops), len(history.events)))
                counted.append(index)
                validator.count(index)

        history.stream_to(Tap, retain=False)
        rt.run()
        assert sizes == {(0, 0)}
        assert len(counted) == rt.steps_taken > 0
        lin, _audit, status, payload = validator.verdict()
        assert status == LIN_OK and lin
        assert payload["events"] == history._index
        assert payload["ops_completed"] == 600

    def test_online_thread_tap_counts_primitives(self, monkeypatch):
        """``stress --online`` on threads hands the history the
        validator's feed and counter: no primitive event is built."""
        from repro.rt.stress import run_stress
        from repro.sim import history as history_module

        def unbuilt(*args, **kwargs):
            raise AssertionError("a primitive event was built")

        offline = run_stress("register", readers=1, writers=1, auditors=0,
                             ops=200, seed=5, record_latency=False)
        monkeypatch.setattr(history_module, "PrimitiveEvent", unbuilt)
        online = run_stress("register", readers=1, writers=1, auditors=0,
                            ops=200, seed=5, record_latency=False,
                            online=True)
        assert online.lin_ok and offline.lin_ok
        assert online.ops_completed == offline.ops_completed == 400

    def test_online_thread_tap_with_an_auditor_builds_only_R(
        self, monkeypatch
    ):
        """With an auditor the tap reads ``R`` alone: every primitive
        event it receives is on ``R``, and the fed and counted
        primitives add up to every primitive the run applied."""
        from repro.rt import stress

        fed, counted, taps = [], [], []
        build = stress.validator_from_meta

        def spied(meta, **kwargs):
            validator = build(meta, **kwargs)
            feed, count = validator.feed, validator.count

            def spy_feed(event):
                if type(event).__name__ == "PrimitiveEvent":
                    fed.append(event)
                feed(event)

            def spy_count(index):
                counted.append(index)
                count(index)

            validator.feed, validator.count = spy_feed, spy_count
            taps.append(validator)
            return validator

        monkeypatch.setattr(stress, "validator_from_meta", spied)
        report = stress.run_stress(
            "register", readers=2, writers=1, auditors=1, ops=200, seed=1,
            record_latency=False, online=True,
        )
        assert report.lin_ok and report.audit_ok
        assert report.checks["audits_nonempty"] > 0
        (validator,) = taps
        assert len(validator.reads) == 1
        assert {event.obj_name for event in fed} == set(validator.reads)
        assert counted
        assert len(fed) + len(counted) == report.primitives


class TestUndecidedNamesItsBudget:
    def test_configuration_cap(self):
        checker = StreamingLinChecker(register_spec(0), max_configs=8)
        for event in open_write_burst(50, BURSTS["open-write"]):
            checker.feed(event)
        verdict = checker.finish()
        assert verdict.status == LIN_UNDECIDED
        assert verdict.budget == "max_configs"

    def test_node_budget(self):
        checker = StreamingLinChecker(
            register_spec(0), max_nodes_per_window=5
        )
        for event in open_write_burst(50, BURSTS["open-write"]):
            checker.feed(event)
        assert checker.partial().budget == "max_nodes_per_window"
        verdict = checker.finish()
        assert verdict.status == LIN_UNDECIDED
        assert verdict.budget == "max_nodes_per_window"

    def test_decided_verdicts_name_no_budget(self):
        checker = StreamingLinChecker(register_spec(0))
        for event in open_write_burst(50, BURSTS["open-write"]):
            checker.feed(event)
        assert checker.finish().budget is None

    def test_report_line_names_the_budget(self):
        from repro.rt.stress import verdict_lines

        assert verdict_lines(LIN_UNDECIDED, None, "", "max_configs")[0] == (
            "  [UNDECIDED] linearizability search budget exhausted "
            "(max_configs)"
        )
