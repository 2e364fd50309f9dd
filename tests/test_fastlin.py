"""Tests for the high-performance linearizability oracle (fastlin).

The legacy naive search (``legacy_check_history``) is the executable
reference: property tests generate random small histories and assert
the bitmask rewrite reaches the identical verdict, partition tests
check P-compositionality against the unpartitioned global spec, and the
batched verdict path (a ``lin`` campaign section) is held to the
engine's byte-identical JSONL contract.
"""

import json
import random

import pytest

from repro.analysis.fastlin import (
    LIN_FAIL,
    LIN_OK,
    LIN_UNDECIDED,
    PENDING,
    FastLinChecker,
    check_history,
    decode_value,
    encode_value,
    legacy_check_history,
    op_from_payload,
    op_to_payload,
    precedence_masks,
    spec_from_name,
    spec_names,
)
from repro.analysis.specs import (
    auditable_register_spec,
    register_array_spec,
    register_spec,
    snapshot_spec,
    versioned_spec,
)
from repro.sim.events import CrashEvent, PrimitiveEvent, Response
from repro.sim.history import OperationRecord


def op(pid, op_id, name, args, invoke, respond, result=None):
    return OperationRecord(
        pid=pid,
        op_id=op_id,
        name=name,
        args=args,
        invoke_index=invoke,
        response_index=respond,
        result=result,
    )


SPEC = register_spec(0)


# ---------------------------------------------------------------------
# Random history generators
# ---------------------------------------------------------------------

def random_register_history(rng, procs=3, max_ops=8, values=(0, 1, 2)):
    """Random interleaved write/read history; reads may return values
    the spec must reject, so both verdict polarities are exercised."""
    ops = []
    clock = 0
    open_op = {p: None for p in range(procs)}
    counts = {p: 0 for p in range(procs)}
    total = rng.randrange(2, max_ops + 1)
    created = 0
    while created < total or any(o is not None for o in open_op.values()):
        p = rng.randrange(procs)
        if open_op[p] is None:
            if created >= total:
                continue
            if rng.random() < 0.5:
                record = OperationRecord(
                    pid=f"p{p}", op_id=counts[p], name="write",
                    args=(rng.choice(values),), invoke_index=clock,
                )
            else:
                record = OperationRecord(
                    pid=f"p{p}", op_id=counts[p], name="read",
                    args=(), invoke_index=clock,
                )
            clock += 1
            counts[p] += 1
            created += 1
            ops.append(record)
            open_op[p] = record
        else:
            record = open_op[p]
            record.response_index = clock
            clock += 1
            if record.name == "read":
                record.result = rng.choice(values)
            open_op[p] = None
    # Crash-heavy tail: each process's final op may stay pending.
    for p in range(procs):
        mine = [o for o in ops if o.pid == f"p{p}"]
        if mine and rng.random() < 0.3:
            mine[-1].response_index = None
            mine[-1].result = None
    return ops


def random_array_history(rng, cells=3, procs=3, max_ops=9):
    """Like :func:`random_register_history` but over array cells, so the
    partitioned and the global checking paths can be compared."""
    ops = random_register_history(
        rng, procs=procs, max_ops=max_ops, values=(0, 1, 2)
    )
    for record in ops:
        cell = rng.randrange(cells)
        record.args = (cell,) + record.args
    return ops


def assert_same_verdict(ops, spec, seed):
    legacy = legacy_check_history(ops, spec)
    fast = check_history(ops, spec)
    assert fast.status in (LIN_OK, LIN_FAIL)
    assert fast.ok == legacy.ok, (
        f"seed {seed}: legacy={legacy.ok} fast={fast.ok} for {ops}"
    )
    return fast


def assert_valid_order(ops, spec, result):
    """The witness must contain every complete op, extend real-time
    precedence, and replay through the spec."""
    assert result.order is not None
    keys = [o.key() for o in result.order]
    assert len(keys) == len(set(keys))
    complete = {o.key() for o in ops if o.is_complete}
    assert complete <= set(keys)
    for i, a in enumerate(result.order):
        for b in result.order[i + 1:]:
            assert not b.precedes(a), f"{b} linearized after {a}"
    state = spec.initial
    for o in result.order:
        result_value = o.result if o.is_complete else PENDING
        state = spec.apply(state, o.name, o.args, result_value, o.pid)
        assert state is not None, f"spec rejected witness op {o}"


# ---------------------------------------------------------------------
# Differential property tests against the legacy reference
# ---------------------------------------------------------------------

class TestDifferential:
    def test_random_register_histories(self):
        accepted = rejected = 0
        for seed in range(300):
            rng = random.Random(seed)
            ops = random_register_history(rng)
            fast = assert_same_verdict(ops, SPEC, seed)
            if fast.ok:
                accepted += 1
                assert_valid_order(ops, SPEC, fast)
            else:
                rejected += 1
        # The generator must exercise both verdicts to mean anything.
        assert accepted > 30 and rejected > 30

    def test_random_auditable_histories(self):
        """Tuple-valued states (value, pair set) through both checkers."""
        reader_index = {"p0": 0, "p1": 1, "p2": 2}
        for seed in range(60):
            rng = random.Random(1000 + seed)
            ops = random_register_history(rng, values=("a", "b"))
            for record in ops:
                if record.name == "read":
                    record.args = (record.pid,)
            spec = auditable_register_spec(0, reader_index)
            assert_same_verdict(ops, spec, seed)

    def test_explicit_rejections_match(self):
        cases = [
            [op("w", 0, "write", (5,), 0, 1),
             op("r", 0, "read", (), 2, 3, result=0)],
            [op("r", 0, "read", (), 0, 1, result=99)],
            [op("w", 0, "write", (1,), 0, 1),
             op("w", 1, "write", (2,), 2, 3),
             op("r", 0, "read", (), 4, 5, result=1)],
        ]
        for i, ops in enumerate(cases):
            fast = assert_same_verdict(ops, SPEC, i)
            assert not fast.ok

    def test_pending_semantics_match_legacy(self):
        # Pending ops may be dropped or linearized with any result.
        ops = [
            op("w", 0, "write", (5,), 0, None),
            op("r", 0, "read", (), 1, 2, result=5),
        ]
        assert check_history(ops, SPEC).ok
        ops = [
            op("w", 0, "write", (5,), 0, None),
            op("r", 0, "read", (), 1, 2, result=0),
        ]
        assert check_history(ops, SPEC).ok
        ops = [
            op("w", 0, "write", (5,), 0, 1),
            op("r", 0, "read", (), 2, None),
        ]
        assert check_history(ops, SPEC).ok

    def test_crash_heavy_history(self):
        # Every process crashed mid-operation: nothing complete, any
        # subset of the pending ops may be linearized.
        ops = [
            op(f"p{i}", 0, "write", (i,), i, None) for i in range(6)
        ]
        fast = check_history(ops, SPEC)
        legacy = legacy_check_history(ops, SPEC)
        assert fast.ok and legacy.ok
        assert fast.order == []

    def test_sequential_chain_explores_linearly(self):
        # Forced-operation pruning: a fully sequential history is a
        # straight-line walk, one node per op (plus root).
        n = 60
        ops = []
        state = 0
        for i in range(n):
            if i % 2 == 0:
                ops.append(op("w", i, "write", (i,), 2 * i, 2 * i + 1))
                state = i
            else:
                ops.append(
                    op("r", i, "read", (), 2 * i, 2 * i + 1, result=state)
                )
        result = check_history(ops, SPEC)
        assert result.ok
        assert result.explored <= n + 1

    def test_forced_rejection_fails_fast(self):
        # The first op is complete and precedes everything else: once
        # the spec rejects it the whole search is dead immediately.
        ops = [op("r", 0, "read", (), 0, 1, result=42)] + [
            op(f"w{i}", 0, "write", (i,), 2 + i, None) for i in range(10)
        ]
        result = check_history(ops, SPEC)
        assert not result.ok
        assert result.explored == 1


class TestPrecedenceMasks:
    def test_matches_pairwise_definition(self):
        for seed in range(50):
            rng = random.Random(seed)
            ops = random_register_history(rng, procs=4, max_ops=10)
            preds, succs = precedence_masks(ops)
            n = len(ops)
            for j in range(n):
                expected = 0
                for i in range(n):
                    if i != j and ops[i].precedes(ops[j]):
                        expected |= 1 << i
                assert preds[j] == expected, f"seed {seed} preds[{j}]"
            for i in range(n):
                expected = 0
                for j in range(n):
                    if i != j and ops[i].precedes(ops[j]):
                        expected |= 1 << j
                assert succs[i] == expected, f"seed {seed} succs[{i}]"


# ---------------------------------------------------------------------
# P-compositionality
# ---------------------------------------------------------------------

class TestPartitioning:
    def test_register_array_matches_global_spec(self):
        spec = register_array_spec(0)
        accepted = rejected = 0
        for seed in range(200):
            rng = random.Random(seed)
            ops = random_array_history(rng)
            legacy = legacy_check_history(ops, spec)  # global apply
            fast = check_history(ops, spec)  # partitioned per cell
            assert fast.ok == legacy.ok, f"seed {seed}"
            accepted += fast.ok
            rejected += not fast.ok
        assert accepted > 20 and rejected > 20

    def test_partitioning_beats_global_search(self):
        # A violating read in one cell while every cell carries mutually
        # concurrent writes: the global search must exhaust the whole
        # cross-cell interleaving space to conclude FAIL, the
        # partitioned one only searches the guilty cell's projection.
        spec = register_array_spec(0)
        cells = 5
        ops = []
        for cell in range(cells):
            for k in range(2):
                ops.append(op(
                    f"p{cell}", k, "write", (cell, k + 1),
                    cell * 2 + k, 100 + cell * 2 + k,
                ))
        ops.append(
            op("r", 0, "read", (0,), cells * 2, 99, result=99)
        )
        legacy = legacy_check_history(ops, spec)
        fast = check_history(ops, spec)
        assert not fast.ok and not legacy.ok
        assert fast.partitions == cells
        assert fast.explored * 5 < legacy.explored

    def test_partition_failure_detected(self):
        spec = register_array_spec(0)
        ops = [
            op("p0", 0, "write", (0, 7), 0, 1),
            op("p1", 0, "read", (1,), 2, 3, result=7),  # wrong cell
        ]
        result = check_history(ops, spec)
        assert not result.ok
        assert result.status == LIN_FAIL

    def test_single_partition_returns_witness(self):
        spec = register_array_spec(0)
        ops = [
            op("p0", 0, "write", (2, 7), 0, 1),
            op("p0", 1, "read", (2,), 2, 3, result=7),
        ]
        result = check_history(ops, spec)
        assert result.ok and result.partitions == 1
        assert [o.name for o in result.order] == ["write", "read"]

    def test_snapshot_spec_is_not_partitioned(self):
        """Scans observe whole views: the snapshot spec must take the
        single-partition path and agree with the legacy checker."""
        from repro.workloads.generators import (
            SnapshotWorkload,
            build_snapshot_system,
        )

        workload = SnapshotWorkload(
            components=2, num_scanners=2, updates_per_component=2,
            scans_per_scanner=2, seed=5,
        )
        built = build_snapshot_system(workload)
        history = built.run()
        spec = snapshot_spec(
            workload.components, 0, built.updater_index,
            built.scanner_index,
        )
        assert spec.partition_key is None
        ops = history.operations()
        fast = check_history(ops, spec)
        assert fast.partitions == 1
        assert fast.ok == legacy_check_history(ops, spec).ok == True  # noqa: E712

    def test_versioned_spec_is_not_partitioned(self):
        from repro.core.versioned import AuditableVersioned, counter_spec
        from repro.sim.runner import Simulation
        from repro.sim.scheduler import RandomSchedule

        sim = Simulation(schedule=RandomSchedule(3))
        tspec = counter_spec()
        obj = AuditableVersioned(tspec, num_readers=2)
        reader_index = {}
        for j in range(2):
            pid = f"r{j}"
            handle = obj.reader(sim.spawn(pid), j)
            reader_index[pid] = j
            sim.add_program(pid, [handle.read_op() for _ in range(2)])
        updater = obj.updater(sim.spawn("u0"))
        sim.add_program("u0", [updater.update_op(2), updater.update_op(3)])
        history = sim.run()
        spec = versioned_spec(tspec, reader_index)
        assert spec.partition_key is None
        ops = history.operations()
        fast = check_history(ops, spec)
        assert fast.partitions == 1
        assert fast.ok == legacy_check_history(ops, spec).ok == True  # noqa: E712


# ---------------------------------------------------------------------
# Budgets: structured UNDECIDED
# ---------------------------------------------------------------------

class TestBudget:
    OPS = [
        op("w", 0, "write", (1,), 0, None),
        op("x", 0, "write", (2,), 0, None),
        op("r", 0, "read", (), 0, 1, result=2),
    ]

    def test_fastlin_returns_undecided(self):
        result = check_history(self.OPS, SPEC, max_nodes=1)
        assert result.status == LIN_UNDECIDED
        assert result.undecided and not result.ok

    def test_budget_does_not_crash_stress_harness(self):
        """Regression: a budget-limited post-validation used to raise
        out of ``run_stress``; it now degrades to UNDECIDED."""
        from repro.rt.stress import run_stress

        report = run_stress(
            "register", threads=2, ops=3, seed=0, lin_max_nodes=1
        )
        assert report.validated
        assert report.lin_ok is None
        assert report.lin_status == LIN_UNDECIDED
        assert report.ok  # undecided is not a violation
        assert "UNDECIDED" in report.render()
        assert report.to_payload()["lin_status"] == LIN_UNDECIDED

    def test_stress_within_budget_still_validates(self):
        from repro.rt.stress import run_stress

        report = run_stress("register", threads=2, ops=3, seed=0)
        assert report.lin_ok is True and report.lin_status == LIN_OK

    def test_mc_check_surfaces_undecided_as_verdict(self, monkeypatch):
        """A budget-starved oracle must surface as an explicit verdict
        string from the scenario check, never as a verified pass."""
        import repro.analysis as analysis
        from repro.analysis.fastlin import LinearizationResult
        from repro.mc.scenarios import get_scenario

        factory, check = get_scenario("alg1-w1-r1")()
        sim, reg = factory()
        sim.run()
        monkeypatch.setattr(
            analysis,
            "check_history",
            lambda ops, spec: LinearizationResult(
                False, None, 1, LIN_UNDECIDED
            ),
        )
        verdict = check(sim, reg)
        assert verdict is not None and "undecided" in verdict

    def test_mc_check_passes_within_budget(self):
        from repro.mc.scenarios import get_scenario

        factory, check = get_scenario("alg1-w1-r1")()
        sim, reg = factory()
        sim.run()
        assert check(sim, reg) is None


# ---------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------

class TestCodec:
    def test_value_round_trip(self):
        values = [
            None, 0, 1.5, True, "x",
            (1, 2, ("a", None)),
            [1, [2, 3]],
            frozenset({(0, "v"), (1, "w")}),
            {"k": (1, frozenset({2}))},
            (),
            frozenset(),
        ]
        for value in values:
            encoded = encode_value(value)
            json.dumps(encoded)  # must be JSON-safe
            decoded = decode_value(encoded)
            assert decoded == value, value

    def test_sets_encode_canonically(self):
        a = encode_value(frozenset({(0, "x"), (1, "y")}))
        b = encode_value(frozenset({(1, "y"), (0, "x")}))
        assert json.dumps(a) == json.dumps(b)

    def test_op_round_trip(self):
        record = op(
            "r0", 3, "audit", (), 5, 9,
            result=frozenset({(0, "v1"), (1, "v2")}),
        )
        clone = op_from_payload(op_to_payload(record))
        assert clone.pid == record.pid
        assert clone.op_id == record.op_id
        assert clone.args == record.args
        assert clone.result == record.result
        assert clone.invoke_index == record.invoke_index
        assert clone.response_index == record.response_index

    def test_unencodable_value_raises(self):
        with pytest.raises(TypeError):
            encode_value(object())


# ---------------------------------------------------------------------
# Named specs and the batched verdict path (the ``lin`` campaign kind)
# ---------------------------------------------------------------------

_WRITE = op_to_payload(op("w", 0, "write", (5,), 0, 1))

#: Lines ``repro lin`` and ``repro campaign run`` must both refuse
#: with exit 2 before anything runs.
MALFORMED = {
    "not an op": [{"not": "an op"}],
    "partial op": [{"pid": "p", "op_id": 0, "name": "read", "invoke": 0}],
    "no history key": {"histroy": [], "spec": "register"},
    "unknown tag": [dict(_WRITE, args={"q": [5]})],
    "non-string spec": {"history": [_WRITE], "spec": 5},
    "non-object spec_params": {
        "history": [_WRITE], "spec": "register", "spec_params": [0],
    },
    "string invoke index": [dict(_WRITE, invoke="0")],
    "untagged args": [dict(_WRITE, args=[5])],
}


class TestVerdictService:
    def _histories(self):
        return [
            random_register_history(random.Random(seed))
            for seed in range(6)
        ]

    def _lin_file(self, tmp_path):
        path = tmp_path / "histories.jsonl"
        path.write_text("".join(
            json.dumps([op_to_payload(o) for o in ops]) + "\n"
            for ops in self._histories()
        ), encoding="utf-8")
        return str(path)

    def test_spec_registry(self):
        assert "register" in spec_names()
        spec = spec_from_name(
            "auditable_register",
            initial="v0", reader_index={"r0": 0},
        )
        assert spec.name == "auditable_register"
        with pytest.raises(KeyError, match="unknown spec"):
            spec_from_name("nope")

    def test_batched_matches_serial_checks(self):
        from repro.campaign import Section, run_section

        histories = self._histories()
        section = Section(
            "lin", "lin", params={"spec": "register",
                                  "spec_params": {"initial": 0}},
        ).axis("history", *[
            [op_to_payload(o) for o in ops] for ops in histories
        ])
        records = run_section(section, workers=1).records
        assert len(records) == len(histories)
        for record, ops in zip(records, histories):
            direct = check_history(ops, register_spec(0))
            assert record["payload"]["status"] == direct.status
            assert record["payload"]["explored"] == direct.explored
            assert record["payload"]["ops"] == len(ops)

    def test_parallel_jsonl_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._lin_file(tmp_path)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        first = main(["lin", path, "--workers", "1", "--out", str(serial)])
        second = main([
            "lin", path, "--workers", "2", "--out", str(parallel),
        ])
        assert first == second
        assert serial.read_bytes() == parallel.read_bytes()

    def test_resume_skips_completed(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._lin_file(tmp_path)
        out = tmp_path / "resume.jsonl"
        first = main(["lin", path, "--out", str(out)])
        before = out.read_bytes()
        capsys.readouterr()
        assert main(["lin", path, "--out", str(out)]) == first
        assert out.read_bytes() == before
        assert "(0 run, 6 resumed)" in capsys.readouterr().out

    def test_spec_precedence(self, tmp_path, capsys):
        """A section spec overrides the record's, the record's spec
        applies otherwise, and ``register`` is the default."""
        from repro.__main__ import main
        from repro.campaign import Section, executor_for, run_section

        lin = executor_for("lin")
        bare = [op_to_payload(op("r", 0, "read", (), 0, 1, result="v0"))]
        record = {"history": bare, "spec": "register",
                  "spec_params": {"initial": "v0"}}
        assert lin.resolve({"history": bare}) == (bare, "register", None)
        assert lin.resolve({"history": record}) == (
            bare, "register", {"initial": "v0"}
        )
        assert lin.resolve({"history": record, "spec": "max_register"}) \
            == (bare, "max_register", None)

        def statuses(section):
            return [
                r["payload"]["status"]
                for r in run_section(section, workers=1).records
            ]

        # The default's initial value 0 rejects the read of "v0".
        assert statuses(
            Section("lin", "lin").axis("history", bare, record)
        ) == [LIN_FAIL, LIN_OK]
        assert statuses(
            Section("lin", "lin", params={"spec": "register"})
            .axis("history", record)
        ) == [LIN_FAIL]

        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["lin", str(path)]) == 0
        assert main(["lin", str(path), "--spec", "register"]) == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_exits_two_from_lin_and_campaign(
        self, case, tmp_path, capsys
    ):
        from repro.__main__ import main

        good, bad = [_WRITE], MALFORMED[case]
        lines = tmp_path / "h.jsonl"
        lines.write_text(
            json.dumps(good) + "\n" + json.dumps(bad) + "\n",
            encoding="utf-8",
        )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sections": [{
            "kind": "lin", "axes": {"history": [good, bad]},
        }]}), encoding="utf-8")
        assert main(["lin", str(lines)]) == 2
        assert main(["campaign", "run", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.count("point 1 of section 'lin'") == 2


# ---------------------------------------------------------------------
# The repro lin CLI
# ---------------------------------------------------------------------

class TestLinCli:
    def _write_histories(self, path, make_result):
        lines = []
        for seed in range(3):
            rng = random.Random(seed)
            ops = random_register_history(rng)
            for record in ops:
                if record.name == "read" and record.is_complete:
                    record.result = make_result(record)
            lines.append(json.dumps({
                "history": [op_to_payload(o) for o in ops],
                "spec": "register",
                "spec_params": {"initial": 0},
            }))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_ok_histories_exit_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "h.jsonl"
        lines = [json.dumps([
            op_to_payload(op("w", 0, "write", (5,), 0, 1)),
            op_to_payload(op("r", 0, "read", (), 2, 3, result=5)),
        ])]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["lin", str(path), "--spec", "register"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "1 histories" in out

    def test_violation_exits_one(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "bad.jsonl"
        self._write_histories(path, lambda record: "never-written")
        assert main(["lin", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_budget_exits_two(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "h.jsonl"
        self._write_histories(path, lambda record: 0)
        code = main(["lin", str(path), "--max-nodes", "1"])
        assert code == 2
        assert "UNDECIDED" in capsys.readouterr().out

    def test_list_specs(self, capsys):
        from repro.__main__ import main

        assert main(["lin", "--list-specs"]) == 0
        assert "auditable_register" in capsys.readouterr().out

    def test_spec_params_requires_spec(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "h.jsonl"
        self._write_histories(path, lambda record: 0)
        with pytest.raises(SystemExit):
            main(["lin", str(path), "--spec-params", '{"initial": 0}'])
        assert "--spec-params requires --spec" in capsys.readouterr().err

    def test_spec_params_applied_with_spec(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "h.jsonl"
        lines = [json.dumps([
            op_to_payload(op("r", 0, "read", (), 0, 1, result="v0")),
        ])]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # initial 0 rejects the read; the override accepts it.
        assert main(["lin", str(path), "--spec", "register"]) == 1
        assert main([
            "lin", str(path), "--spec", "register",
            "--spec-params", '{"initial": "v0"}',
        ]) == 0

    def test_malformed_payload_rejected(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "h.jsonl"
        path.write_text('[{"not": "an op"}]\n', encoding="utf-8")
        assert main(["lin", str(path)]) == 2
        assert "not an operation payload" in capsys.readouterr().err

    def test_partial_payload_rejected(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "h.jsonl"
        path.write_text(
            '[{"pid": "p", "op_id": 0, "name": "read", "invoke": 0}]\n',
            encoding="utf-8",
        )
        assert main(["lin", str(path)]) == 2
        assert "not an operation payload" in capsys.readouterr().err

    def test_missing_history_key_rejected(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "h.jsonl"
        path.write_text('{"histroy": [], "spec": "register"}\n',
                        encoding="utf-8")
        assert main(["lin", str(path)]) == 2
        assert "history" in capsys.readouterr().err


# ---------------------------------------------------------------------
# Audit exactness against a brute-force reference
# ---------------------------------------------------------------------

def _reference_expected(history, register, cut, lift):
    """The lifted pair of every fetch&xor on ``R`` before ``cut``."""
    return {
        lift(event.args[0].bit_length() - 1,
             register._decode_value(event.result.val))
        for event in history.events
        if isinstance(event, PrimitiveEvent)
        and event.obj_name == register.R.name
        and event.primitive == "fetch_xor"
        and event.index < cut
    }


def _reference_violations(history, register, lift):
    """(pid, op_id, missing, extra) of every audit response that differs
    from the pairs announced before the audit's first read of ``R``."""
    found = set()
    for response in history.events:
        if not (isinstance(response, Response)
                and response.op_name == "audit"):
            continue
        cut = next((
            event.index for event in history.events
            if isinstance(event, PrimitiveEvent)
            and (event.pid, event.op_id) == (response.pid, response.op_id)
            and event.obj_name == register.R.name
            and event.primitive == "read"
        ), None)
        if cut is None:
            continue
        expected = _reference_expected(history, register, cut, lift)
        reported = set(response.result)
        if expected != reported:
            found.add((
                response.pid, response.op_id,
                frozenset(expected - reported),
                frozenset(reported - expected),
            ))
    return found


def _audit_system(kind, seed):
    """A seeded simulator system: (built, audited register, lift, the
    reader pid to crash)."""
    from repro.analysis.audit_checks import strip_version
    from repro.workloads.generators import (
        RegisterWorkload,
        SnapshotWorkload,
        build_max_register_system,
        build_register_system,
        build_snapshot_system,
    )

    if kind == "snapshot":
        built = build_snapshot_system(
            SnapshotWorkload(seed=seed, audits_per_auditor=3)
        )
        return built, built.register.M, strip_version, "s0"
    workload = RegisterWorkload(
        num_readers=2, num_writers=2, num_auditors=2,
        reads_per_reader=3, writes_per_writer=2,
        audits_per_auditor=2, seed=seed,
    )
    build = (
        build_register_system if kind == "register"
        else build_max_register_system
    )
    built = build(workload)
    return built, built.register, None, "r0"


class TestAuditExactnessReference:
    """``check_audit_exactness`` and ``expected_audit_set`` against the
    brute-force oracle, on seeded histories with a crashed reader and
    audit responses tampered at random (so both sides have violations
    to agree on)."""

    @pytest.mark.parametrize("kind", ["register", "max", "snapshot"])
    def test_matches_brute_force(self, kind):
        from dataclasses import replace

        from repro.analysis.audit_checks import (
            check_audit_exactness,
            expected_audit_set,
        )

        crashed_mid_op = tampered = 0
        for seed in range(12):
            built, register, lift, victim = _audit_system(kind, seed)
            rng = random.Random(seed)
            for _ in range(rng.randrange(60)):
                built.sim.step()
            built.sim.crash(victim)
            history = built.run()
            crashed_mid_op += any(
                isinstance(event, CrashEvent) and event.op_id is not None
                for event in history.events
            )
            for position, event in enumerate(history.events):
                if isinstance(event, Response) and event.op_name == "audit":
                    pairs = sorted(event.result, key=repr)
                    choice = rng.randrange(3)
                    if choice == 1 and pairs:
                        pairs.pop(rng.randrange(len(pairs)))
                    elif choice == 2:
                        pairs.append((rng.randrange(2), "bogus"))
                    if choice and set(pairs) != set(event.result):
                        tampered += 1
                    history.events[position] = replace(
                        event, result=frozenset(pairs)
                    )

            found = {
                (v.audit_pid, v.audit_op_id, v.missing, v.extra)
                for v in check_audit_exactness(history, register, lift=lift)
            }
            assert found == _reference_violations(
                history, register, lift or (lambda j, v: (j, v))
            ), seed
            for cut in range(0, len(history.events) + 1, 5):
                assert expected_audit_set(history, register, cut) == (
                    _reference_expected(
                        history, register, cut, lambda j, v: (j, v)
                    )
                ), (seed, cut)
        assert crashed_mid_op and tampered


class TestWindowedAuditOracle:
    """The oracle decides exactness from sizes and subset tests; it
    must still report exactly what is missing and what is extra."""

    R = "reg.R"
    READS = [(0, "v1"), (1, "v1"), (0, "v1"), (0, "v2")]
    EXPECTED = {(0, "v1"), (1, "v1"), (0, "v2")}

    def _oracle(self, window):
        """Reads announce READS, then auditor a0 reads R (its cut),
        then one more read lands after the cut."""
        from repro.analysis.audit_checks import WindowedAuditOracle
        from repro.memory.rword import RWord
        from repro.sim.events import PrimitiveEvent

        oracle = WindowedAuditOracle(self.R, window=window)
        index = 0
        for j, value in self.READS:
            oracle.feed(PrimitiveEvent(
                index, f"r{j}", index, self.R, "fetch_xor", (1 << j,),
                RWord(1, value, 0),
            ))
            index += 1
        oracle.feed(PrimitiveEvent(
            index, "a0", 0, self.R, "read", (), RWord(1, "v2", 0)
        ))
        oracle.feed(PrimitiveEvent(
            index + 1, "r1", 99, self.R, "fetch_xor", (2,),
            RWord(1, "v3", 0),
        ))
        return oracle, index + 2

    def _audit(self, window, reported):
        from repro.sim.events import Response

        oracle, index = self._oracle(window)
        violation = oracle.feed(Response(index, "a0", 0, "audit", reported))
        assert oracle.audits_checked == 1
        return oracle, violation

    WINDOWS = [1, 1024]  # everything folded into the base / all recent

    @pytest.mark.parametrize("window", WINDOWS)
    def test_exact_audit_passes(self, window):
        oracle, violation = self._audit(window, frozenset(self.EXPECTED))
        assert violation is None and not oracle.violations
        assert oracle.resident_pairs == 4
        assert oracle.audits_nonempty == 1

    @pytest.mark.parametrize("window", WINDOWS)
    def test_swapped_pair_is_a_violation(self, window):
        reported = (self.EXPECTED - {(0, "v2")}) | {(1, "v9")}
        assert len(reported) == len(self.EXPECTED)
        _, violation = self._audit(window, frozenset(reported))
        assert violation.missing == frozenset({(0, "v2")})
        assert violation.extra == frozenset({(1, "v9")})

    @pytest.mark.parametrize("window", WINDOWS)
    def test_pair_read_after_the_cut_is_extra(self, window):
        _, violation = self._audit(
            window, frozenset(self.EXPECTED | {(1, "v3")})
        )
        assert violation.missing == frozenset()
        assert violation.extra == frozenset({(1, "v3")})

    @pytest.mark.parametrize("window", WINDOWS)
    def test_a_list_compares_as_a_set(self, window):
        duplicated = [(0, "v1"), (0, "v1"), (1, "v1"), (0, "v2")]
        _, violation = self._audit(window, duplicated)
        assert violation is None
        # Right length only when duplicates count: still a violation.
        short = [(0, "v1"), (0, "v1"), (1, "v1")]
        _, violation = self._audit(window, short)
        assert violation.missing == frozenset({(0, "v2")})
        assert violation.extra == frozenset()

    def test_compacted_cut_still_raises(self):
        oracle, _ = self._audit(1, frozenset(self.EXPECTED))
        # The audit responded, so the window folded every pair.
        assert oracle.expected(7) == self.EXPECTED | {(1, "v3")}
        with pytest.raises(ValueError, match="compacted away"):
            oracle.expected(4)
        with pytest.raises(ValueError, match="compacted away"):
            oracle._check_audit("a0", 1, 0, frozenset())
