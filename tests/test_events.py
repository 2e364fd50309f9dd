"""History events keep plain frozen-dataclass semantics.

The event classes replace only the ``__init__`` that
``dataclass(frozen=True)`` generates (it stores fields through
``object.__setattr__``, one call per field); everything else must be
what a plain frozen dataclass with the same fields gives.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.sim.events import (
    CrashEvent,
    Invocation,
    PendingPrimitive,
    PrimitiveEvent,
    Response,
)
from repro.sim.vault import _frozen_fields, _immutable

#: Positional arguments per class: a few instances, equal pairs among them.
SAMPLES = {
    PendingPrimitive: [("R", "read", ()), ("R", "write", (1,)), ("R", "read")],
    Invocation: [(1, "p", 0, "read"), (1, "p", 0, "read", ()),
                 (2, "q", 1, "write", ("v",))],
    Response: [(3, "p", 0, "read", "v"), (3, "p", 0, "read"),
               (4, "a", 2, "audit", frozenset({(0, "v")}))],
    PrimitiveEvent: [(5, "p", 0, "R", "read", (), 7),
                     (5, "p", 0, "R", "read", (), 7),
                     (6, "w", 1, "R", "cas", (1, 2), True)],
    CrashEvent: [(7, "p"), (7, "p", None), (8, "q", 3)],
}


def _twin(cls):
    """A plain ``@dataclass(frozen=True)`` with ``cls``'s fields and
    name."""
    namespace = {
        "__annotations__": {},
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    for field in dataclasses.fields(cls):
        namespace["__annotations__"][field.name] = field.type
        if field.default is not dataclasses.MISSING:
            namespace[field.name] = field.default
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
class TestEventSemantics:
    def test_signature_is_the_dataclass_signature(self, cls):
        assert inspect.signature(cls) == inspect.signature(_twin(cls))

    def test_eq_hash_and_repr_match_a_plain_frozen_dataclass(self, cls):
        twin = _twin(cls)
        samples = SAMPLES[cls]
        for args in samples:
            event, plain = cls(*args), twin(*args)
            assert repr(event) == repr(plain)
            assert hash(event) == hash(plain)
            assert dataclasses.astuple(event) == dataclasses.astuple(plain)
            for other in samples:
                assert (event == cls(*other)) == (plain == twin(*other))
        assert cls(*samples[0]) != twin(*samples[0])

    def test_keyword_construction_and_defaults(self, cls):
        twin = _twin(cls)
        names = [field.name for field in dataclasses.fields(cls)]
        for args in SAMPLES[cls]:
            kwargs = dict(zip(names, args))
            assert cls(**kwargs) == cls(*args)
            assert repr(cls(**kwargs)) == repr(twin(**kwargs))
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*SAMPLES[cls][0], nope=1)

    def test_fields_are_frozen(self, cls):
        event = cls(*SAMPLES[cls][0])
        for field in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, field.name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(event, field.name)

    def test_pickle_round_trip(self, cls):
        for args in SAMPLES[cls]:
            event = cls(*args)
            back = pickle.loads(pickle.dumps(event))
            assert type(back) is cls
            assert back == event and repr(back) == repr(event)

    def test_the_vault_shares_them(self, cls):
        names = tuple(field.name for field in dataclasses.fields(cls))
        assert _frozen_fields(cls) == names
        for args in SAMPLES[cls]:
            assert _immutable(cls(*args))
        assert not _immutable(cls(*[[] for _ in names]))
