"""History events as tagged-JSON lines: the streaming wire format.

The online verdict paths move history events across process and
machine boundaries — the thread/process runtimes stream them into
``python -m repro serve``, and ``stress --online --event-log`` spools
them to disk.  This module defines the codec and the line protocol.

The value codec extends :mod:`repro.analysis.fastlin`'s canonical
tagged-JSON (tuples/sets/lists/dicts) with the *loose* tags event
payloads need: the ``⊥`` sentinel, :class:`~repro.memory.rword.RWord`
triples (primitive results on ``R`` — the windowed audit oracle reads
``.val`` off them), dataclasses (revived to their real ``repro.*``
class so ``isinstance`` hooks like ``register._decode_value`` keep
working, degrading to attribute-compatible hashable
:class:`NsShell` shells for foreign or since-renamed classes) and, as
a last resort, ``repr`` capsules that compare by their text.

Line protocol (one JSON object per line)::

    {"k": "hello", "v": 1, ...meta}     stream header
    {"k": "inv", ...} / {"k": "res", ...} / {"k": "prim", ...}
    {"k": "crash", ...}                 history events, index order
    {"k": "end", "events": N}           clean end-of-stream marker

A stream that stops without its ``end`` marker was truncated — the
consumer must report a PARTIAL verdict, never OK.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.analysis.fastlin import UNENCODABLE, decode_value, encode_strict
from repro.memory.base import BOTTOM, Bottom
from repro.memory.rword import RWord
from repro.sim.events import CrashEvent, Invocation, PrimitiveEvent, Response

#: Wire-format version (the ``hello`` line carries it).
PROTOCOL_VERSION = 1


class ReprCapsule:
    """Last-resort encoding of a value with no structural codec: keeps
    the ``repr`` text and compares by it."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text

    def __eq__(self, other: Any) -> bool:
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(self.text)


class NsShell(SimpleNamespace):
    """Decoded dataclass shell that oracles can key sets/dicts on.

    Hashes by attribute *names* only (equal shells have equal attribute
    sets, so the hash contract holds even when attribute values are
    unhashable decoded containers); equality stays SimpleNamespace's
    attribute-wise comparison.
    """

    def __hash__(self) -> int:
        return hash(frozenset(self.__dict__))


def encode_loose(value: Any) -> Any:
    """JSON-safe encoding of an event value (superset of
    :func:`repro.analysis.fastlin.encode_value`)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, Bottom):
        return {"btm": 1}
    if isinstance(value, RWord):
        return {
            "rw": [value.seq, encode_loose(value.val), value.bits]
        }
    if isinstance(value, tuple):
        return {"t": [encode_loose(v) for v in value]}
    if isinstance(value, list):
        return {"l": [encode_loose(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {
            "s": sorted(
                (encode_loose(v) for v in value),
                key=lambda e: json.dumps(e, sort_keys=True),
            )
        }
    if isinstance(value, dict):
        return {
            "d": [
                [encode_loose(k), encode_loose(v)]
                for k, v in value.items()
            ]
        }
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "ns": {
                "c": f"{cls.__module__}.{cls.__qualname__}",
                "f": {
                    f.name: encode_loose(getattr(value, f.name))
                    for f in fields(value)
                },
            }
        }
    return {"rx": repr(value)}


def _revive_dataclass(path: str, attrs: Dict[str, Any]) -> Any:
    """Reconstruct a repo dataclass from its wire form, or fall back
    to an attribute-compatible :class:`NsShell`.

    Only ``repro.*`` classes are ever imported (the producer is this
    repo; a log naming anything else is treated as foreign data), and
    any reconstruction failure — renamed class, changed fields —
    degrades to the shell rather than rejecting the stream.
    """
    if path.startswith("repro."):
        module_name, _, qualname = path.rpartition(".")
        try:
            module = __import__(module_name, fromlist=["_"])
            cls = module
            for part in qualname.split("."):
                cls = getattr(cls, part)
            return cls(**attrs)
        except Exception:
            pass
    return NsShell(**attrs)


#: Container tags and the type each decodes to.
_CONTAINERS = {"t": tuple, "s": frozenset, "l": list}

_tuple_items = itemgetter("t")


def _flat_tuple_rows(items: List[Any]) -> Optional[List[List[Any]]]:
    """The item lists of ``items`` when every item is a tuple of JSON
    scalars (``{"t": [scalar, ...]}``, the shape of an audit's
    ``(reader, value)`` pairs), else ``None``.  Every test is one C
    pass over ``items``, so an audit response decodes without a Python
    call per pair."""
    if (
        set(map(type, items)) != {dict}
        or set(map(len, items)) != {1}
        or set(chain.from_iterable(items)) != {"t"}
    ):
        return None
    rows = list(map(_tuple_items, items))
    if set(map(type, rows)) != {list} or dict in map(
        type, chain.from_iterable(rows)
    ):
        return None
    return rows


def decode_loose(encoded: Any) -> Any:
    """Inverse of :func:`encode_loose` (to oracle-compatible values).

    A container whose items hold no nested ``dict`` (every item a JSON
    scalar) is built with one constructor call, and so is one whose
    items are all such tuples (:func:`_flat_tuple_rows`); anything else
    recurses per item.
    """
    if not isinstance(encoded, dict):
        return encoded
    (tag, items), = encoded.items()
    container = _CONTAINERS.get(tag)
    if container is not None:
        if dict not in map(type, items):
            return container(items)
        rows = _flat_tuple_rows(items)
        if rows is not None:
            return container(map(tuple, rows))
        return container(map(decode_loose, items))
    if tag == "btm":
        return BOTTOM
    if tag == "rw":
        seq, val, bits = items
        return RWord(seq, decode_loose(val), bits)
    if tag == "d":
        return {decode_loose(k): decode_loose(v) for k, v in items}
    if tag == "ns":
        return _revive_dataclass(
            items["c"],
            {name: decode_loose(v) for name, v in items["f"].items()},
        )
    if tag == "rx":
        return ReprCapsule(items)
    raise ValueError(f"unknown event-payload tag {tag!r}")


#: The line format: ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))``.
_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: The C encoder ``_LINE.encode`` would build for every line, built
#: once.  Its circular-reference markers are shared across calls: a
#: successful encode leaves them empty, a failed one (a cycle, an
#: unencodable value) may not, so ``_compact`` clears them before the
#: error propagates.  Python code runs mid-line only through
#: ``default``, which raises, so successful encodes cannot interleave.
_line_markers: Dict[int, Any] = {}
_c_line = c_make_encoder and c_make_encoder(
    _line_markers, _LINE.default, encode_basestring_ascii, _LINE.indent,
    _LINE.key_separator, _LINE.item_separator, _LINE.sort_keys,
    _LINE.skipkeys, _LINE.allow_nan,
)


def _compact(value: Any) -> str:
    """One event-log line, byte-identical to ``_LINE.encode(value)``."""
    if _c_line is None:  # pragma: no cover - CPython has the accelerator
        return _LINE.encode(value)
    try:
        return "".join(_c_line(value, 0))
    except BaseException:
        _line_markers.clear()
        raise


def strict_or_loose(value: Any) -> Any:
    """Prefer fastlin's canonical encoding (byte-stable set ordering),
    fall back to the loose tags for values it cannot carry."""
    encoded = encode_strict(value)
    return encode_loose(value) if encoded is UNENCODABLE else encoded


# ---------------------------------------------------------------------
# Event <-> payload
# ---------------------------------------------------------------------

def event_to_payload(event: Any) -> Dict[str, Any]:
    if isinstance(event, Invocation):
        return {
            "k": "inv",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
            "n": event.op_name,
            "a": strict_or_loose(tuple(event.args)),
        }
    if isinstance(event, Response):
        return {
            "k": "res",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
            "n": event.op_name,
            "r": strict_or_loose(event.result),
        }
    if isinstance(event, PrimitiveEvent):
        return {
            "k": "prim",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
            "obj": event.obj_name,
            "prim": event.primitive,
            "a": strict_or_loose(tuple(event.args)),
            "r": strict_or_loose(event.result),
        }
    if isinstance(event, CrashEvent):
        return {
            "k": "crash",
            "i": event.index,
            "p": event.pid,
            "o": event.op_id,
        }
    raise TypeError(f"cannot encode event {event!r}")


def event_from_payload(payload: Dict[str, Any]) -> Any:
    kind = payload["k"]
    if kind == "inv":
        return Invocation(
            payload["i"], payload["p"], payload["o"], payload["n"],
            decode_loose(payload["a"]),
        )
    if kind == "res":
        return Response(
            payload["i"], payload["p"], payload["o"], payload["n"],
            decode_loose(payload["r"]),
        )
    if kind == "prim":
        return PrimitiveEvent(
            payload["i"], payload["p"], payload["o"], payload["obj"],
            payload["prim"], decode_loose(payload["a"]),
            decode_loose(payload["r"]),
        )
    if kind == "crash":
        return CrashEvent(payload["i"], payload["p"], payload["o"])
    raise ValueError(f"unknown event kind {kind!r}")


# Re-export for symmetry: op payloads decode with the strict codec.
__all_decoders__ = (decode_value,)


# ---------------------------------------------------------------------
# The JSONL sink (History.stream_to target)
# ---------------------------------------------------------------------

class JsonlEventSink:
    """Writes one tagged-JSON line per history event.

    Construct it with a path and attach via
    ``history.stream_to(sink)``; the file opens lazily at the first
    event (so the sink pickles cleanly into the memory-server process
    of :class:`~repro.rt.process_runtime.ProcessRuntime`) and a
    ``hello`` header is written first.  Call :meth:`close` after a
    clean run to append the ``end`` marker — a log without it reads as
    truncated (PARTIAL), which is exactly right for a crashed run.
    """

    def __init__(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = path
        self.meta = dict(meta or {})
        self._fh: Optional[TextIO] = None
        self.events_written = 0

    def _open(self) -> TextIO:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
            header = {"k": "hello", "v": PROTOCOL_VERSION}
            header.update(self.meta)
            self._fh.write(_compact(header) + "\n")
        return self._fh

    def __call__(self, event: Any) -> None:
        fh = self._open()
        fh.write(_compact(event_to_payload(event)) + "\n")
        self.events_written += 1

    def close(self, end: bool = True) -> None:
        fh = self._open()  # even an empty run gets a well-formed log
        if end:
            fh.write(
                _compact({"k": "end", "events": self.events_written}) + "\n"
            )
        fh.close()
        self._fh = None

    # Lazy-open keeps the sink picklable until first use.
    def __getstate__(self) -> Dict[str, Any]:
        if self._fh is not None:
            raise TypeError("cannot pickle an open JsonlEventSink")
        return {
            "path": self.path,
            "meta": self.meta,
            "events_written": self.events_written,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.meta = state["meta"]
        self.events_written = state["events_written"]
        self._fh = None


# ---------------------------------------------------------------------
# Reading streams back
# ---------------------------------------------------------------------

#: The JSON decoder's C scanner: one call parses a whole line, without
#: ``json.loads``'s Python-level whitespace and trailing-data checks.
_scan = json.JSONDecoder().scan_once


def parse_line(line: str) -> Tuple[str, Any]:
    """Parse one protocol line into ``(kind, value)``.

    ``kind`` is ``"hello"`` (value: meta dict), ``"event"`` (value: a
    decoded event) or ``"end"`` (value: the declared event count, or
    ``None``).  Any malformed line -- bad JSON, or valid JSON of the
    wrong shape -- raises :class:`ValueError`, which every reader
    treats as the stream's truncation point.
    """
    try:
        try:
            payload, end = _scan(line, 0)
        except StopIteration:
            end = -1
        if end != len(line):
            # Whitespace around the object, or not JSON: json.loads
            # parses the former and raises the exact error for the rest.
            payload = json.loads(line)
        kind = payload.get("k")
        if kind == "hello":
            return "hello", payload
        if kind == "end":
            return "end", payload.get("events")
        return "event", event_from_payload(payload)
    except (AttributeError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed event-log line: {exc!r}") from exc


def iter_event_log(path: str) -> Iterator[Tuple[str, Any]]:
    """Yield ``(kind, value)`` per :func:`parse_line` for each line.

    A torn trailing line (a writer killed mid-write) or any other
    malformed line ends the stream there, without its ``end`` marker,
    which consumers already treat as truncation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield parse_line(line)
            except ValueError:
                return


def load_event_log(
    path: str,
) -> Tuple[List[Any], bool, Dict[str, Any]]:
    """Read a whole log: ``(events, clean_end, meta)``."""
    events: List[Any] = []
    clean = False
    meta: Dict[str, Any] = {}
    for kind, value in iter_event_log(path):
        if kind == "hello":
            meta = value
        elif kind == "end":
            clean = True
        else:
            events.append(value)
    return events, clean, meta
