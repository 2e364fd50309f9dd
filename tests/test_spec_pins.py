"""Pinned verdicts of every sequential spec on both checking engines.

Each case is a seeded history and a spec: Algorithm 1 (E2) and
Algorithm 2 histories, E7 snapshot histories, Theorem 13 versioned
histories, random register-array histories, and naive-baseline stress
rosters run on the simulator.  The pins (``tests/spec_pins.json``) were
recorded when reader identity travelled in operation args, each read,
update and scan carrying its pid as a trailing arg.  Specs now receive
the invoking pid instead, so their states and transitions are
unchanged: the same histories must reproduce every pinned status,
``explored`` count and partition count exactly -- as recorded, and in
the older pid-in-args shape.
"""

import json
import random
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.fastlin import (
    DEFAULT_MAX_NODES,
    LIN_FAIL,
    LIN_UNDECIDED,
    PENDING,
    check_history,
    spec_from_name,
    spec_names,
)
from repro.analysis.specs import versioned_spec
from repro.analysis.streamlin import check_history_streaming
from repro.core.versioned import (
    AuditableVersioned,
    counter_spec,
    kv_store_spec,
    logical_clock_spec,
)
from repro.sim.runner import Simulation
from repro.sim.scheduler import RandomSchedule
from repro.workloads.generators import (
    RegisterWorkload,
    SnapshotWorkload,
    build_max_register_system,
    build_register_system,
    build_snapshot_system,
)

from test_fastlin import random_array_history, random_register_history

PINS = json.loads(
    (Path(__file__).parent / "spec_pins.json").read_text("utf-8")
)

SHAPES = [
    dict(num_readers=1, num_writers=1, num_auditors=1,
         reads_per_reader=3, writes_per_writer=3, audits_per_auditor=2),
    dict(num_readers=2, num_writers=2, num_auditors=1,
         reads_per_reader=3, writes_per_writer=2, audits_per_auditor=2),
    dict(num_readers=3, num_writers=2, num_auditors=1,
         reads_per_reader=2, writes_per_writer=2, audits_per_auditor=1),
]
SEEDS = range(4)

#: Budgets small enough to cut the larger histories to UNDECIDED.
TIGHT = {"max_nodes": 6, "max_nodes_per_window": 4}

VERSIONED = {
    "counter": (counter_spec(), lambda rng: rng.randrange(1, 5)),
    "clock": (logical_clock_spec(), lambda rng: rng.randrange(10)),
    "kv": (
        kv_store_spec(),
        lambda rng: (rng.choice("abc"), rng.randrange(100)),
    ),
}


def pid_in_args(op):
    """The older input shape: a read, update or scan carries its pid as
    a trailing arg (an argless read carries only the pid)."""
    if op.name == "read" and not op.args:
        return replace(op, args=(op.pid,))
    if op.name in ("update", "scan"):
        return replace(op, args=op.args + (op.pid,))
    return op


def without_audits(ops):
    return [op for op in ops if op.name != "audit"]


def corrupt_last(ops, name, result):
    """``ops`` with the last complete ``name`` op answering ``result``."""
    ops = list(ops)
    for k in range(len(ops) - 1, -1, -1):
        if ops[k].name == name and ops[k].is_complete:
            ops[k] = replace(ops[k], result=result)
            return ops
    raise AssertionError(f"no complete {name} op")


def cut_last(ops, name):
    """``ops`` with the last ``name`` op left pending."""
    ops = list(ops)
    for k in range(len(ops) - 1, -1, -1):
        if ops[k].name == name:
            ops[k] = replace(ops[k], response_index=None, result=None)
            return ops
    raise AssertionError(f"no {name} op")


def _register_cases(cases):
    for s, shape in enumerate(SHAPES):
        for seed in SEEDS:
            built = build_register_system(RegisterWorkload(seed=seed, **shape))
            ops = built.run().operations()
            index = built.reader_index
            key = f"e2/{s}/{seed}"
            audited = ("auditable_register",
                       {"initial": "v0", "reader_index": index})
            cases[f"{key}/auditable_register"] = (ops, audited, {})
            cases[f"{key}/auditable_register/tight"] = (ops, audited, TIGHT)
            cases[f"{key}/auditable_register/pending-read"] = (
                cut_last(ops, "read"), audited, {}
            )
            cases[f"{key}/auditable_register/bad-read"] = (
                corrupt_last(ops, "read", "never-written"), audited, {}
            )
            cases[f"{key}/auditable_register/empty-audit"] = (
                corrupt_last(ops, "audit", frozenset()), audited, {}
            )
            cases[f"{key}/stream_register"] = (
                ops, ("stream_register", {"initial": "v0"}), {}
            )
            cases[f"{key}/stream_register/empty-audit"] = (
                corrupt_last(ops, "audit", frozenset()),
                ("stream_register", {"initial": "v0"}), {},
            )
            cases[f"{key}/register"] = (
                without_audits(ops), ("register", {"initial": "v0"}), {}
            )
            cases[f"{key}/register/audited"] = (
                ops, ("register", {"initial": "v0"}), {}
            )


def _max_register_cases(cases):
    for s, shape in enumerate(SHAPES):
        for seed in SEEDS:
            built = build_max_register_system(
                RegisterWorkload(seed=seed, **shape)
            )
            ops = built.run().operations()
            index = built.reader_index
            key = f"alg2/{s}/{seed}"
            audited = ("auditable_max_register",
                       {"initial": 0, "reader_index": index})
            cases[f"{key}/auditable_max_register"] = (ops, audited, {})
            cases[f"{key}/auditable_max_register/tight"] = (
                ops, audited, TIGHT
            )
            cases[f"{key}/auditable_max_register/bad-read"] = (
                corrupt_last(ops, "read", -1), audited, {}
            )
            cases[f"{key}/stream_max_register"] = (
                ops, ("stream_max_register", {"initial": 0}), {}
            )
            cases[f"{key}/max_register"] = (
                without_audits(ops), ("max_register", {"initial": 0}), {}
            )


def _snapshot_cases(cases):
    for seed in SEEDS:
        built = build_snapshot_system(SnapshotWorkload(seed=seed))
        ops = built.run().operations()
        updaters, scanners = built.updater_index, built.scanner_index
        key = f"e7/{seed}"
        full = ("snapshot", {"components": 2, "initial": 0,
                             "updater_index": updaters,
                             "scanner_index": scanners})
        cases[f"{key}/snapshot"] = (ops, full, {})
        cases[f"{key}/snapshot/tight"] = (ops, full, TIGHT)
        cases[f"{key}/snapshot/pending-scan"] = (
            cut_last(ops, "scan"), full, {}
        )
        cases[f"{key}/snapshot/bad-scan"] = (
            corrupt_last(ops, "scan", (0, -1)), full, {}
        )
        cases[f"{key}/snapshot/no-scanners"] = (
            ops, ("snapshot", {"components": 2, "initial": 0,
                               "updater_index": updaters}), {},
        )
        cases[f"{key}/stream_snapshot"] = (
            ops, ("stream_snapshot", {"components": 2, "initial": 0,
                                      "updater_index": updaters}), {},
        )


def _versioned_cases(cases):
    for type_name, (tspec, gen) in VERSIONED.items():
        for seed in SEEDS:
            rng = random.Random(f"{type_name}/{seed}")
            sim = Simulation(schedule=RandomSchedule(seed))
            obj = AuditableVersioned(tspec, num_readers=2)
            index = {}
            for j in range(2):
                pid = f"r{j}"
                handle = obj.reader(sim.spawn(pid), j)
                index[pid] = j
                sim.add_program(pid, [handle.read_op() for _ in range(3)])
            for i in range(2):
                pid = f"u{i}"
                handle = obj.updater(sim.spawn(pid))
                sim.add_program(
                    pid, [handle.update_op(gen(rng)) for _ in range(2)]
                )
            auditor = obj.auditor(sim.spawn("a"))
            sim.add_program("a", [auditor.audit_op()])
            ops = sim.run().operations()
            key = f"e8/{type_name}/{seed}"
            spec = ("versioned", {"type": type_name, "reader_index": index})
            cases[f"{key}/versioned"] = (ops, spec, {})
            cases[f"{key}/versioned/tight"] = (ops, spec, TIGHT)
            cases[f"{key}/versioned/pending-read"] = (
                cut_last(ops, "read"), spec, {}
            )
            if type_name == "counter":
                cases[f"{key}/counter"] = (
                    without_audits(ops), ("counter", {}), {}
                )
                cases[f"{key}/counter/bad-read"] = (
                    corrupt_last(without_audits(ops), "read", -1),
                    ("counter", {}), {},
                )


def _random_cases(cases):
    for seed in range(8):
        cases[f"random/{seed}/register"] = (
            random_register_history(random.Random(seed)),
            ("register", {"initial": 0}), {},
        )
        cases[f"random/{seed}/register_array"] = (
            random_array_history(random.Random(seed)),
            ("register_array", {"initial": 0}), {},
        )


def _naive_stress_cases(cases):
    from repro.rt.stress import (
        _stress_pids,
        build_stress_register,
        stress_op_source,
    )

    for seed in SEEDS:
        reg = build_stress_register("naive", 2, 1, seed)
        sim = Simulation(RandomSchedule(seed))
        for pid, role, index in _stress_pids("naive", 2, 1, 1):
            sim.spawn(pid)
            source = stress_op_source(reg, pid, "naive", seed, role, index)
            sim.add_program(pid, [source() for _ in range(10)])
        ops = sim.run().operations()
        spec = ("auditable_register",
                {"initial": "v0", "reader_index": {"r0": 0, "r1": 1}})
        cases[f"naive-stress/{seed}/auditable_register"] = (ops, spec, {})
        cases[f"naive-stress/{seed}/auditable_register/tight"] = (
            ops, spec, TIGHT
        )


@lru_cache(maxsize=None)
def cases():
    """case id -> (operations, (spec name, spec params), budgets)."""
    built = {}
    for family in (_register_cases, _max_register_cases, _snapshot_cases,
                   _versioned_cases, _random_cases, _naive_stress_cases):
        family(built)
    return built


def build_spec(name, params):
    if name == "versioned":
        tspec = VERSIONED[params["type"]][0]
        return versioned_spec(tspec, params["reader_index"])
    return spec_from_name(name, **params)


def pin_row(ops, spec_ref, budgets):
    spec = build_spec(*spec_ref)
    batch = check_history(
        ops, spec, max_nodes=budgets.get("max_nodes", DEFAULT_MAX_NODES)
    )
    stream = check_history_streaming(
        ops, spec, max_nodes_per_window=budgets.get(
            "max_nodes_per_window", DEFAULT_MAX_NODES
        ),
    )
    return {
        "check_history": {
            "status": batch.status,
            "explored": batch.explored,
            "partitions": batch.partitions,
        },
        "check_history_streaming": {
            "status": stream.status,
            "explored": stream.progress.explored,
        },
    }


def test_corpus_covers_every_named_spec_and_verdict():
    used = {spec_ref[0] for _ops, spec_ref, _b in cases().values()}
    assert used == set(spec_names()) | {"versioned"}
    assert sorted(PINS) == sorted(cases())
    for engine in ("check_history", "check_history_streaming"):
        statuses = {row[engine]["status"] for row in PINS.values()}
        assert {LIN_FAIL, LIN_UNDECIDED} <= statuses, engine


@pytest.mark.parametrize("shape", ["recorded", "pid-in-args"])
def test_verdicts_match_the_pins(shape):
    rows = {}
    for case, (ops, spec_ref, budgets) in cases().items():
        if shape == "pid-in-args":
            ops = [pid_in_args(op) for op in ops]
        rows[case] = pin_row(ops, spec_ref, budgets)
    mismatched = sorted(case for case in rows if rows[case] != PINS[case])
    assert not mismatched, [(c, rows[c], PINS[c]) for c in mismatched[:5]]


class TestSpecSemantics:
    """What one ``apply`` does with the invoking pid."""

    INDEX = {"r0": 0, "r1": 1}

    def test_a_pending_read_adds_its_pair(self):
        spec = spec_from_name(
            "auditable_register", initial="v0", reader_index=self.INDEX
        )
        state = spec.apply(spec.initial, "read", (), PENDING, "r1")
        assert state == ("v0", frozenset({(1, "v0")}))

    @pytest.mark.parametrize("name", ["register", "max_register", "counter"])
    def test_plain_specs_reject_audits(self, name):
        spec = spec_from_name(name)
        assert spec.apply(spec.initial, "audit", (), PENDING, "a0") is None

    @pytest.mark.parametrize(
        "name", ["stream_register", "stream_max_register", "stream_snapshot"]
    )
    def test_stream_specs_accept_audits_apart(self, name):
        spec = spec_from_name(name)
        assert spec.partition_key("audit", ()) is True
        assert spec.partition_key("read", ()) is False
        assert spec.apply(
            spec.initial, "audit", (), frozenset({(0, 1)}), "a0"
        ) == spec.initial

    def test_snapshot_without_scanner_index_tracks_no_pairs(self):
        spec = spec_from_name("snapshot", components=1,
                              updater_index={"u0": 0})
        state = spec.apply(spec.initial, "update", (7,), None, "u0")
        assert spec.apply(state, "scan", (), (7,), "s0") == state
        assert spec.apply(state, "audit", (), frozenset(), "a0") == state

    @pytest.mark.parametrize("name,op,params", [
        ("auditable_register", "read",
         {"initial": "v0", "reader_index": INDEX}),
        ("auditable_max_register", "read",
         {"initial": 0, "reader_index": INDEX}),
        ("snapshot", "scan",
         {"components": 1, "scanner_index": {"s0": 0}}),
    ])
    def test_a_pid_missing_from_a_given_index_is_a_key_error(
        self, name, op, params
    ):
        spec = spec_from_name(name, **params)
        with pytest.raises(KeyError):
            spec.apply(spec.initial, op, (), PENDING, "stranger")
