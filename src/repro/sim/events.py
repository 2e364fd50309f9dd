"""Event types recorded in an execution history.

An execution (paper, Section 2) is an alternating sequence of
configurations and events.  We record three kinds of events:

- :class:`Invocation` / :class:`Response` delimit high-level operations
  (``read``, ``write``, ``audit``, ...).
- :class:`PrimitiveEvent` records a single atomic primitive applied to a
  base object, together with its arguments and its result.  The sequence
  of primitive events *by one process* (arguments and results included) is
  exactly that process's local view, which is what the paper's
  indistinguishability relation ``alpha ~p beta`` compares.
- :class:`CrashEvent` marks the point where a process stops taking steps
  (used to model the honest-but-curious attacker that "stops prematurely",
  Section 2, Attacks).

Events carry a global, monotonically increasing ``index`` so that
real-time precedence between operations can be recovered from the log.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, Optional, Tuple


def _direct_init(cls: type) -> type:
    """Give frozen dataclass ``cls`` an ``__init__`` that stores each
    field straight into the instance ``__dict__``.

    The ``__init__`` ``dataclass(frozen=True)`` generates goes through
    ``object.__setattr__`` once per field, which more than doubles the
    cost of building an event; every runtime builds one
    :class:`PendingPrimitive` and one :class:`PrimitiveEvent` per
    primitive.  The replacement takes the same parameters and defaults
    (read from :func:`dataclasses.fields`, which must all be positional
    ``__init__`` fields with plain defaults, and no ``__post_init__``);
    eq, hash, repr, pickling and the frozen ``__setattr__`` stay the
    dataclass's own.
    """
    names = []
    defaults = []
    annotations = {}
    for f in fields(cls):
        if not f.init or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: unsupported field")
        names.append(f.name)
        annotations[f.name] = f.type
        if f.default is not MISSING:
            defaults.append(f.default)
    stores = "".join(f"\n    d[{name!r}] = {name}" for name in names)
    namespace: dict = {}
    exec(
        f"def __init__(self, {', '.join(names)}):\n"
        f"    d = self.__dict__{stores}",
        namespace,
    )
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__annotations__ = {**annotations, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_direct_init
@dataclass(frozen=True)
class PendingPrimitive:
    """A primitive a process is about to apply, yielded to the scheduler.

    Algorithm code never executes a primitive directly: it yields a
    ``PendingPrimitive`` and the scheduler applies it atomically when the
    process is next scheduled.  This guarantees the one-primitive-per-step
    granularity of the paper's model, and lets adversarial schedules
    inspect what each process is about to do.
    """

    obj: Any
    primitive: str
    args: Tuple[Any, ...] = ()


@_direct_init
@dataclass(frozen=True)
class Invocation:
    """Invocation event of a high-level operation."""

    index: int
    pid: str
    op_id: int
    op_name: str
    args: Tuple[Any, ...] = ()


@_direct_init
@dataclass(frozen=True)
class Response:
    """Response event of a high-level operation."""

    index: int
    pid: str
    op_id: int
    op_name: str
    result: Any = None


@_direct_init
@dataclass(frozen=True)
class PrimitiveEvent:
    """One atomic primitive applied to a base object.

    ``op_id`` links the primitive to the high-level operation during which
    it was applied, which is how effectiveness (Claim 4 / Claim 35) is
    detected after the fact.
    """

    index: int
    pid: str
    op_id: int
    obj_name: str
    primitive: str
    args: Tuple[Any, ...]
    result: Any

    def view(self) -> Tuple[str, str, Tuple[Any, ...], Any]:
        """The locally observable content of this event.

        Two executions are indistinguishable to a process iff the
        sequences of ``view()`` tuples of its primitive events coincide.
        """
        return (self.obj_name, self.primitive, self.args, self.result)


@_direct_init
@dataclass(frozen=True)
class CrashEvent:
    """Process ``pid`` stops taking steps after this point."""

    index: int
    pid: str
    op_id: Optional[int] = None


Event = Any
