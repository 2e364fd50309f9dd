"""Base-object plumbing shared by all shared-memory objects."""

from __future__ import annotations

from typing import Any, Tuple

from repro.sim.events import PendingPrimitive


class Bottom:
    """The undefined initial value (the paper's ``⊥``).

    A singleton; compares equal only to itself and sorts below every
    other value so it can participate in max-register orderings.
    """

    _instance = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __lt__(self, other: Any) -> bool:
        return not isinstance(other, Bottom)

    def __le__(self, other: Any) -> bool:
        return True

    def __gt__(self, other: Any) -> bool:
        return False

    def __ge__(self, other: Any) -> bool:
        return isinstance(other, Bottom)

    def __hash__(self) -> int:
        return hash("⊥-bottom")


BOTTOM = Bottom()


class BaseObject:
    """A shared base object whose primitives are applied by the scheduler.

    Subclasses implement ``_apply_<primitive>(*args)`` methods; generator
    wrappers yield :class:`PendingPrimitive` descriptors so that the
    primitive executes atomically at the scheduler step that resumes the
    process.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def apply(self, primitive: str, args: Tuple[Any, ...]) -> Any:
        """Atomically apply a primitive (called by the runtime).

        Atomicity is the caller's responsibility: apply calls on one
        object must be serialized.  The simulator guarantees this by
        executing one primitive per scheduler step; the thread runtime
        (:mod:`repro.rt`) by holding its one history lock across the
        application *and* its history recording; the process runtime
        by applying every primitive on its single-threaded memory
        server.
        """
        method = getattr(self, "_apply_" + primitive, None)
        if method is None:
            raise AttributeError(
                f"{type(self).__name__} ({self.name}) does not support "
                f"primitive {primitive!r}"
            )
        return method(*args)

    def _request(self, primitive: str, *args: Any):
        """Generator helper: suspend, then return the primitive's result."""
        result = yield PendingPrimitive(self, primitive, args)
        return result

    def peek(self) -> Any:  # pragma: no cover - overridden where meaningful
        """Non-linearizable debugging access to the object's state.

        Never used by algorithms; only by invariant-checking test helpers
        that replay shadow state.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
