"""Golden pins for bytes that must never drift silently.

Fault-plan draws and event-log lines are wire formats: a recorded chaos
run replays only if a seeded plan injects the same faults, and a served
or archived log verifies only if the encoder writes the same bytes.
The literals below were recorded before either hot path was optimised;
any change to them is a format change, not a refactor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro._seeding import stable_hash, stable_hash_from, stable_prefix
from repro.analysis.fastlin import UNENCODABLE, encode_strict, encode_value
from repro.core.auditable_register import AuditableRegister
from repro.core.types import Nonced
from repro.crypto import OneTimePadSequence
from repro.faults import SeededFaultPlan
from repro.memory.base import BOTTOM
from repro.__main__ import main
from repro.memory.rword import RWord
from repro.rt.serve import VerdictServer, serve_file
from repro.rt.stress import (
    STRESS_OBJECTS,
    _stress_pids,
    build_stress_register,
    run_stress,
    stress_meta,
    stress_op_source,
)
from repro.sim import event_log
from repro.sim.event_log import JsonlEventSink
from repro.sim.events import CrashEvent, Invocation, PrimitiveEvent, Response
from repro.sim.runner import Simulation
from repro.sim.scheduler import RandomSchedule

# -- fault draws ---------------------------------------------------------------

#: Every non-None decision of the plan below over steps 1..2000 for
#: pids ("p", "q"), as (step, pid, repr(decision)).
FAULT_DRAWS = [
    (79, "p", "DuplicateDecision('p')"),
    (135, "p", "DelayDecision('p', steps=3)"),
    (207, "p", "RecoverDecision('p')"),
    (322, "q", "CrashDecision('q')"),
    (342, "q", "OmitDecision('q')"),
    (343, "q", "DuplicateDecision('q')"),
    (435, "p", "OmitDecision('p')"),
    (448, "q", "PartitionDecision(('q',), steps=5)"),
    (553, "q", "CrashDecision('q')"),
    (625, "p", "OmitDecision('p')"),
    (689, "q", "OmitDecision('q')"),
    (815, "p", "DuplicateDecision('p')"),
    (977, "q", "RecoverDecision('q')"),
    (979, "p", "OmitDecision('p')"),
    (987, "p", "RecoverDecision('q')"),
    (1044, "q", "PartitionDecision(('q',), steps=5)"),
    (1059, "q", "RecoverDecision('p')"),
    (1152, "q", "OmitDecision('q')"),
    (1214, "q", "CrashDecision('q')"),
    (1223, "p", "DelayDecision('p', steps=3)"),
    (1255, "q", "DuplicateDecision('q')"),
    (1269, "q", "PartitionDecision(('q',), steps=5)"),
    (1673, "p", "OmitDecision('p')"),
    (1737, "q", "DelayDecision('q', steps=3)"),
    (1741, "p", "OmitDecision('p')"),
    (1840, "q", "DelayDecision('q', steps=3)"),
    (1885, "p", "DelayDecision('p', steps=3)"),
    (1943, "q", "CrashDecision('q')"),
    (1986, "q", "DuplicateDecision('q')"),
]


def _armed_plan():
    return SeededFaultPlan(
        2026, crash_per_10k=10, delay_per_10k=10, partition_per_10k=10,
        dup_per_10k=10, omit_per_10k=10, recover_per_10k=10,
        delay_steps=3, partition_steps=5, max_crashes=1, pids=("p", "q"),
    )


def _fired(plan):
    draws = (
        (step, pid, plan.decide(step, pid, "areg.R", "read"))
        for step in range(1, 2001)
        for pid in ("p", "q")
    )
    return [(s, p, repr(d)) for s, p, d in draws if d is not None]


def test_seeded_fault_draws_are_pinned():
    assert _fired(_armed_plan()) == FAULT_DRAWS


def test_seeded_fault_draws_survive_pickling():
    clone = pickle.loads(pickle.dumps(_armed_plan()))
    assert _fired(clone) == FAULT_DRAWS


def test_stable_hash_from_a_prefix_is_stable_hash():
    for head, tail in [
        ((), ()),
        (("fault-plan", 7), (123, "r0")),
        (("x",), ((1, "a"), [2.5], None)),
        (("fault-plan", 7, 123, "r0"), ()),
    ]:
        assert stable_hash_from(stable_prefix(*head), *tail) == (
            stable_hash(*head, *tail)
        )


# -- event-log bytes -----------------------------------------------------------

#: sha256 of the JSONL log of :func:`_alg1_run` (meta {"seed": 11}).
ALG1_LOG_SHA256 = (
    "6939de00b9606752379d108f4006cb89b00a46e913f12858c68e1b3710baa946"
)


def _alg1_run(sink, seed=11, rounds=12):
    """Algorithm 1 with 2 readers, 1 writer and 1 auditor under a seeded
    random schedule; the register starts at ⊥ and every other write is
    a dataclass, so the log carries RWord results, sets, ⊥ and
    dataclass values."""
    reg = AuditableRegister(2, pad=OneTimePadSequence(2, seed=seed))
    sim = Simulation(RandomSchedule(seed))
    sim.history.stream_to(sink, retain=False)
    readers = [reg.reader(sim.spawn(f"r{j}"), j) for j in range(2)]
    writer = reg.writer(sim.spawn("w0"))
    auditor = reg.auditor(sim.spawn("a0"))
    for j, reader in enumerate(readers):
        sim.add_program(f"r{j}", [reader.read_op() for _ in range(rounds)])
    values = [
        Nonced(k, 1000 + k) if k % 2 else f"v{k}" for k in range(rounds)
    ]
    sim.add_program("w0", [writer.write_op(v) for v in values])
    sim.add_program("a0", [auditor.audit_op() for _ in range(rounds)])
    sim.run()


def test_event_log_bytes_are_pinned(tmp_path):
    path = tmp_path / "alg1.jsonl"
    sink = JsonlEventSink(str(path), meta={"seed": 11})
    _alg1_run(sink)
    sink.close()
    data = path.read_bytes()
    for tag in (b'"rw"', b'"s"', b'"btm"', b'"ns"'):
        assert tag in data
    assert hashlib.sha256(data).hexdigest() == ALG1_LOG_SHA256


def _reference_strict(value):
    # fastlin's canonical codec as first written: recurse, raise on a
    # value it cannot carry.
    def canon(encoded):
        return json.dumps(encoded, sort_keys=True, separators=(",", ":"))

    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, tuple):
        return {"t": [_reference_strict(v) for v in value]}
    if isinstance(value, list):
        return {"l": [_reference_strict(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"s": sorted(map(_reference_strict, value), key=canon)}
    if isinstance(value, dict):
        pairs = (
            [_reference_strict(k), _reference_strict(v)]
            for k, v in value.items()
        )
        return {"d": sorted(pairs, key=canon)}
    raise TypeError(type(value).__name__)


def _reference_line(value):
    # The event encoder as first written: try the strict codec, fall
    # back to the loose tags, one json.dumps per value.
    try:
        encoded = _reference_strict(value)
    except TypeError:
        encoded = event_log.encode_loose(value)
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def _line(value):
    return json.dumps(
        event_log.strict_or_loose(value), sort_keys=True,
        separators=(",", ":"),
    )


CORPUS = [
    None, True, 0, -3, 2.5, "", "v1", "⊥",
    (), (1, "a"), [1, [2, (3,)]], ((1, 2), [3]),
    frozenset(), frozenset({(0, "v1"), (1, "v1"), (1, "v2")}),
    {1, "1", (1,), (1, 2)}, {"b": 1, "a": (2, {3})}, {(1, 2): [3]},
    BOTTOM, RWord(3, "v3", 0b101), RWord(0, BOTTOM, 0),
    (RWord(1, "x", 1), RWord(2, "y", 0)), (0, BOTTOM),
    Nonced(4, 1004), frozenset({(0, BOTTOM), (1, "v1")}),
    frozenset({(0, Nonced(1, 5)), (1, Nonced(1, 6))}),
    {"k": BOTTOM, "j": {2, 1}}, [RWord(1, {3, 1}, 0), {2, 1}],
    {"b": {3, 1}, "a": [(2, 1)]},
]


def test_event_encoder_matches_the_reference_per_value():
    for value in CORPUS:
        assert _line(value) == _reference_line(value), value


def test_strict_codec_matches_the_reference_per_value():
    for value in CORPUS:
        try:
            expected = _reference_strict(value)
        except TypeError:
            assert encode_strict(value) is UNENCODABLE
            with pytest.raises(TypeError, match="cannot encode"):
                encode_value(value)
            continue
        assert encode_strict(value) == encode_value(value) == expected


def test_event_encoder_matches_the_reference_per_event():
    events = []
    _alg1_run(events.append)
    values = [tuple(e.args) for e in events if hasattr(e, "args")]
    values += [e.result for e in events if hasattr(e, "result")]
    assert len(values) > 300
    for value in values:
        assert _line(value) == _reference_line(value), value


def test_line_encoder_writes_what_json_dumps_writes():
    """``_compact`` builds its C encoder once; every line stays byte for
    byte what ``json.dumps`` with the same options writes."""
    events = []
    _alg1_run(events.append)
    payloads = [event_log.strict_or_loose(value) for value in CORPUS]
    payloads += [event_log.event_to_payload(event) for event in events]
    payloads += [{"k": "hello", "v": 1, "seed": 11}, {"k": "end", "events": 0}]
    assert len(payloads) > 250
    for payload in payloads:
        assert event_log._compact(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ), payload


def test_line_encoder_still_refuses_a_cycle():
    cyclic = {"k": "p", "a": [1]}
    cyclic["a"].append(cyclic)
    for _ in range(2):
        with pytest.raises(ValueError, match="Circular"):
            event_log._compact(cyclic)
    # The failed encodes left no markers behind: the same objects encode
    # once the cycle is gone.
    cyclic["a"].pop()
    assert event_log._compact(cyclic) == '{"a":[1],"k":"p"}'


# -- event-log decoding --------------------------------------------------------


def _reference_decode(encoded):
    # The event decoder as first written: recurse into every item.
    if not isinstance(encoded, dict):
        return encoded
    (tag, items), = encoded.items()
    if tag == "btm":
        return BOTTOM
    if tag == "rw":
        seq, val, bits = items
        return RWord(seq, _reference_decode(val), bits)
    if tag == "t":
        return tuple(_reference_decode(v) for v in items)
    if tag == "l":
        return [_reference_decode(v) for v in items]
    if tag == "s":
        return frozenset(_reference_decode(v) for v in items)
    if tag == "d":
        return {_reference_decode(k): _reference_decode(v) for k, v in items}
    if tag == "ns":
        return event_log._revive_dataclass(
            items["c"],
            {name: _reference_decode(v) for name, v in items["f"].items()},
        )
    if tag == "rx":
        return event_log.ReprCapsule(items)
    raise ValueError(f"unknown event-payload tag {tag!r}")


def _assert_same(got, want):
    """Equal values of identical types, all the way down."""
    assert type(got) is type(want), (got, want)
    if want is BOTTOM:
        assert got is BOTTOM
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, frozenset):
        assert got == want
        members = {member: member for member in got}
        for w in want:
            _assert_same(members[w], w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        keys = {key: key for key in got}
        for key, value in want.items():
            _assert_same(keys[key], key)
            _assert_same(got[key], value)
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_same(getattr(got, field.name), getattr(want, field.name))
    else:
        assert got == want


def _decodes_like_the_reference(encoded):
    got = event_log.decode_loose(encoded)
    _assert_same(got, _reference_decode(encoded))
    return got


def test_event_decoder_matches_the_reference_per_value():
    for value in CORPUS:
        decoded = _decodes_like_the_reference(json.loads(_line(value)))
        assert decoded == value, value
    assert _decodes_like_the_reference({"btm": 1}) is BOTTOM
    assert isinstance(
        _decodes_like_the_reference(json.loads(_line(Nonced(4, 1004)))),
        Nonced,
    )


def test_event_decoder_matches_the_reference_per_event():
    events = []
    _alg1_run(events.append)
    kinds = set()
    for event in events:
        payload = json.loads(
            event_log._compact(event_log.event_to_payload(event))
        )
        for key in ("a", "r"):
            if key in payload:
                kinds.add(type(_decodes_like_the_reference(payload[key])))
    assert {tuple, frozenset, RWord, Nonced} <= kinds


@pytest.mark.parametrize("encoded", [
    {"s": [{"t": [0, "v1"]}, {"t": [1, "v1"]}, {"t": [1, None]}]},
    {"l": [{"t": [0, 1.5]}, {"t": []}, {"t": [True]}]},
    {"t": [{"t": [0, "a"]}, {"l": [1]}]},
    {"s": [{"t": [0, {"btm": 1}]}, {"t": [1, "v"]}]},
    {"t": [{"t": "ab"}, {"t": [1]}]},
    {"l": [{"t": [[1, 2]]}]},
    {"t": [{"t": [1]}, 2]},
])
def test_event_decoder_matches_the_reference_on_tuple_rows(encoded):
    """Containers of tagged tuples: the audit-response shape, and the
    near misses that must take the per-item path."""
    _decodes_like_the_reference(encoded)


@pytest.mark.parametrize("encoded,error", [
    ({"s": [{"t": [[1]]}]}, TypeError),
    ({"s": [{"t": 5}]}, TypeError),
    ({"t": [{"t": [0], "l": [1]}]}, ValueError),
    ({"t": [{"t": [1]}, {}]}, ValueError),
])
def test_event_decoder_fails_like_the_reference(encoded, error):
    with pytest.raises(error):
        event_log.decode_loose(encoded)
    with pytest.raises(error):
        _reference_decode(encoded)


@pytest.mark.parametrize("encoded", [
    {"t": [1, {"zz": 2}]},
    {"s": [{"t": [0, {"zz": 1}]}]},
    {"l": [{"zz": []}]},
])
def test_event_decoder_rejects_unknown_nested_tags(encoded):
    with pytest.raises(ValueError, match="unknown event-payload tag"):
        event_log.decode_loose(encoded)
    with pytest.raises(ValueError, match="unknown event-payload tag"):
        _reference_decode(encoded)


# -- the item memo of set-valued answers ---------------------------------------


def _sim_stress_log(path, object_kind, ops, seed=1, r=2, w=1, a=1):
    """A stress roster on the simulator under ``RandomSchedule(seed)``,
    streamed with the stress ``hello`` meta: the shape of perfbench's
    serve-audit log."""
    reg = build_stress_register(object_kind, r, w, seed)
    sim = Simulation(RandomSchedule(seed), max_steps=10**8)
    sink = JsonlEventSink(
        str(path), meta=stress_meta(object_kind, r, w, a, seed)
    )
    sim.history.stream_to(sink, retain=False)
    for pid, role, index in _stress_pids(object_kind, r, w, a):
        sim.spawn(pid)
        source = stress_op_source(reg, pid, object_kind, seed, role, index)
        sim.add_program(pid, [source() for _ in range(ops)])
    sim.run()
    sink.close()


def _reference_event(line):
    # An event line as first decoded: json.loads, then the recursive
    # reference decoder on every value.
    p = json.loads(line)
    decode = _reference_decode
    if p["k"] == "inv":
        return Invocation(p["i"], p["p"], p["o"], p["n"], decode(p["a"]))
    if p["k"] == "res":
        return Response(p["i"], p["p"], p["o"], p["n"], decode(p["r"]))
    if p["k"] == "prim":
        return PrimitiveEvent(
            p["i"], p["p"], p["o"], p["obj"], p["prim"],
            decode(p["a"]), decode(p["r"]),
        )
    return CrashEvent(p["i"], p["p"], p["o"])


def _set_answer(line):
    return line.endswith("]}}") and ',"r":{"s":[{' in line


@pytest.mark.parametrize("runtime", ["simulator", "thread"])
@pytest.mark.parametrize("object_kind", STRESS_OBJECTS)
def test_parse_line_matches_the_reference_on_stress_logs(
    tmp_path, object_kind, runtime
):
    path = tmp_path / "stress.jsonl"
    if runtime == "simulator":
        _sim_stress_log(path, object_kind, ops=40)
    else:
        run_stress(object_kind, threads=4, ops=20, seed=3, event_log=str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    # Thread schedules vary; a simulator log always has nonempty answers.
    if runtime == "simulator" and object_kind != "naive":
        assert any(map(_set_answer, lines))
    event_log._items.clear()
    for _ in range(2):  # a cold memo, then a warm one
        for line in lines[1:-1]:
            kind, event = event_log.parse_line(line)
            assert kind == "event"
            _assert_same(event, _reference_event(line))


def _parse_outcome(line):
    try:
        return event_log.parse_line(line)
    except ValueError as exc:
        return "error", str(exc)


def _same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "event":
        _assert_same(got[1], want[1])
    else:
        assert got == want


@pytest.fixture(scope="module")
def audited_log(tmp_path_factory):
    """The lines of a simulator register log with at least two audits
    that answer two or more pairs."""
    path = tmp_path_factory.mktemp("memo") / "register.jsonl"
    _sim_stress_log(path, "register", ops=15)
    lines = path.read_text(encoding="utf-8").splitlines()
    audits = [
        k for k, line in enumerate(lines)
        if _set_answer(line) and line.count('{"t":') >= 2
    ]
    assert len(audits) >= 2
    return lines, audits


def _items_of(line):
    head, _, body = line.partition(',"r":{"s":[')
    return head, body[1:-len("}]}}")].split("},{")


def _with_items(head, items):
    return head + ',"r":{"s":[' + ",".join(
        "{" + item + "}" for item in items
    ) + "]}}"


def _add_pair(lines, audits):
    head, items = _items_of(lines[audits[-1]])
    lines[audits[-1]] = _with_items(head, items + ['"t":[0,"forged"]'])


def _drop_pair(lines, audits):
    head, items = _items_of(lines[audits[-1]])
    lines[audits[-1]] = _with_items(head, items[1:])


def _move_pair(lines, audits):
    head, items = _items_of(lines[audits[-1]])
    lines[audits[-1]] = _with_items(head, items[:-1])
    head, earlier = _items_of(lines[audits[-2]])
    lines[audits[-2]] = _with_items(head, earlier + items[-1:])


def _duplicate_item(lines, audits):
    head, items = _items_of(lines[audits[-1]])
    lines[audits[-1]] = _with_items(head, items + items[:1])


def _split_marker_in_a_value(lines, audits):
    head, items = _items_of(lines[audits[-1]])
    lines[audits[-1]] = _with_items(head, items + ['"t":[0,"x},{y"]'])


def _whitespace(lines, audits):
    line = lines[audits[-1]]
    lines[audits[-1]] = line.replace("},{", "}, {")


def _nested_tuple(lines, audits):
    head, items = _items_of(lines[audits[-1]])
    lines[audits[-1]] = _with_items(
        head, items + ['"t":[{"t":[0]},{"t":["v0"]}]']
    )


def _cut_off(lines, audits):
    lines[audits[-1]] = lines[audits[-1]][:-7]


def _head_closed_early(lines, audits):
    line = lines[audits[-1]]
    lines[audits[-1]] = line.replace(',"r":{"s":[', '},"r":{"s":[', 1)


def _answer_braces_blanked(lines, audits):
    head, items = _items_of(lines[audits[-1]])
    line = _with_items(head, items)
    cut = line.index(',"r":{"s":[') + len(',"r":{"s":[')
    lines[audits[-1]] = line[:cut] + " " + line[cut + 1:-4] + " ]}}"


TAMPERS = {
    "added pair": (_add_pair, 1),
    "dropped pair": (_drop_pair, 1),
    "moved pair": (_move_pair, 1),
    "duplicated item": (_duplicate_item, 0),
    "split marker in a value": (_split_marker_in_a_value, 1),
    "whitespace": (_whitespace, 0),
    "nested tuple": (_nested_tuple, 1),
    "cut off": (_cut_off, None),
    "head closed early": (_head_closed_early, None),
    "answer braces blanked": (_answer_braces_blanked, None),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampered_answers_decode_and_serve_like_the_full_path(
    tamper, audited_log, tmp_path, monkeypatch, capsys
):
    """Each tampered audit line parses to the same event, or fails
    with the same error, with and without the item memo, and
    ``repro serve`` reaches the same verdict and exit code."""
    lines, audits = audited_log
    lines = list(lines)
    change, expected_exit = TAMPERS[tamper]
    change(lines, audits)
    path = tmp_path / "tampered.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    event_log._items.clear()
    memo = [[_parse_outcome(line) for line in lines] for _ in range(2)]
    memo_serve = serve_file(VerdictServer(), str(path))
    memo_exit = main(["serve", str(path)])
    with monkeypatch.context() as patch:
        patch.setattr(event_log, "_set_answer_payload", lambda line: None)
        full = [_parse_outcome(line) for line in lines]
        full_serve = serve_file(VerdictServer(), str(path))
        full_exit = main(["serve", str(path)])
    capsys.readouterr()
    for parsed in memo:
        for got, want in zip(parsed, full):
            _same_outcome(got, want)
    assert memo_exit == full_exit
    assert (memo_serve.status, memo_serve.lin_ok, memo_serve.audit_ok) == (
        full_serve.status, full_serve.lin_ok, full_serve.audit_ok
    )
    if expected_exit is not None:
        assert memo_exit == expected_exit
    else:
        assert memo_serve.status == "partial"


_AUDIT_HEAD = '{"i":9,"k":"res","n":"audit","o":0,"p":"a0"'


def test_the_item_memo_never_shares_a_mutable_item():
    line = _with_items(
        _AUDIT_HEAD, ['"t":[0,{"ns":{"c":"foreign.Value","f":{"x":1}}}]']
    )
    (first,), (second,) = (
        event_log.parse_line(line)[1].result for _ in range(2)
    )
    (want,) = _reference_event(line).result
    assert first == second == want
    assert first[1] is not second[1]


def test_the_item_memo_reads_nan_like_the_full_path():
    # The scanner returns one NaN object for every NaN text, so the
    # full path, too, reads two equal NaN items as one.
    line = _with_items(_AUDIT_HEAD, ['"t":[0,NaN]'] * 2 + ['"t":[1,NaN]'])
    want = _reference_event(line)
    assert len(want.result) == 2
    for _ in range(2):
        assert repr(event_log.parse_line(line)[1]) == repr(want)


def test_the_item_memo_leaves_other_kinds_alone():
    for line in (
        '{"k":"hello","r":{"s":[{"t":[0,"v"]}]}}',
        '{"events":3,"k":"end","r":{"s":[{"t":[0,"v"]}]}}',
        '{"a":{"t":[]},"i":1,"k":"inv","n":"read","o":0,"p":"r0",'
        '"r":{"s":[{"zz":1}]}}',
    ):
        payload = json.loads(line)
        kind, value = event_log.parse_line(line)
        if kind == "hello":
            assert value == payload
        elif kind == "end":
            assert value == 3
        else:
            _assert_same(value, _reference_event(line))


def test_the_item_memo_is_capped(monkeypatch):
    monkeypatch.setattr(event_log, "_ITEMS_CAP", 4)
    event_log._items.clear()
    line = _with_items(
        _AUDIT_HEAD, [f'"t":[{k % 2},"v{k}"]' for k in range(10)]
    )
    for _ in range(2):
        _assert_same(event_log.parse_line(line)[1], _reference_event(line))
        assert 0 < len(event_log._items) <= 4


def test_the_item_memo_serves_a_perfbench_shaped_log(tmp_path, monkeypatch):
    """The memo path really runs: each distinct item is scanned once,
    not once per audit that repeats it."""
    path = tmp_path / "serve.jsonl"
    _sim_stress_log(path, "register", ops=100)
    text = path.read_text(encoding="utf-8")
    pairs = sum(
        line.count('{"t":') for line in text.splitlines()
        if _set_answer(line)
    )
    scanned = []
    decode_item = event_log._decode_item

    def counting(piece):
        scanned.append(piece)
        return decode_item(piece)

    monkeypatch.setattr(event_log, "_decode_item", counting)
    event_log._items.clear()
    outcome = serve_file(VerdictServer(), str(path))
    assert outcome.status == "ok" and outcome.audit_ok is True
    assert pairs > 2000
    assert 0 < len(scanned) * 20 < pairs
