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
from repro.memory.rword import RWord
from repro.sim import event_log
from repro.sim.event_log import JsonlEventSink
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
