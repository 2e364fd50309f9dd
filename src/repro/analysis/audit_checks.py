"""Audit exactness: the paper's central auditability guarantee.

Theorem 8 (and Theorem 40): an audit reports ``(j, v)`` *iff* ``p_j``
has a ``v``-effective read linearized before the audit.  Because a
direct read is linearized at its ``fetch&xor`` on ``R``, an audit at its
``read`` of ``R``, and silent reads only duplicate the pair of an
earlier direct read by the same reader, the expected audit set has a
purely syntactic oracle:

    expected(audit) = { (j, decode(w.val)) :
                        some reader applied fetch&xor(2^j) to R,
                        returning triple w,
                        before the audit's read of R }

:class:`WindowedAuditOracle` computes that oracle from a stream of
events and compares it with every completed audit's response; the
batch check :func:`check_audit_exactness` feeds it a recorded history's
events in full, so one implementation judges both.

Objects built on top of an auditable max register (Algorithm 3,
Theorem 13; the versioned types) audit through it but report pairs in
their own vocabulary.  The oracle takes a ``lift(j, v)`` hook,
applied to each announced pair before comparison; :func:`strip_version`
is the lift for audits that drop the max register's version component.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.fastlin import LIN_FAIL, LIN_OK
from repro.sim.events import CrashEvent, PrimitiveEvent, Response
from repro.sim.history import History

#: ``lift(j, v)``: maps an announced pair into the audited object's
#: vocabulary before it is compared with an audit's response.
Lift = Callable[[int, Any], Tuple[int, Any]]


@dataclass(frozen=True)
class AuditViolation:
    audit_pid: str
    audit_op_id: int
    missing: frozenset  # effective reads the audit failed to report
    extra: frozenset  # reported pairs with no matching effective read

    def __str__(self) -> str:
        return (
            f"audit by {self.audit_pid} (op {self.audit_op_id}): "
            f"missing={set(self.missing)} extra={set(self.extra)}"
        )


def strip_version(j: int, v: Any) -> Tuple[int, Any]:
    """The lift for audits that strip the version component of a
    max-register value ``(version, value)``."""
    return (j, v[1])


def expected_audit_set(
    history: History, register, before_index: int
) -> Set[Tuple[int, Any]]:
    """Pairs of effective reads linearized before ``before_index``: the
    windowed oracle fed the events before that cut."""
    oracle = windowed_audit_oracle(register)
    for event in history.events:
        if event.index >= before_index:
            break
        oracle.feed(event)
    return oracle.expected(before_index)


def check_audit_exactness(
    history: History, register, *, lift: Optional[Lift] = None
) -> List[AuditViolation]:
    """Compare each completed audit against the syntactic oracle of
    ``register``, its pairs mapped through ``lift`` when given: the
    windowed oracle fed every recorded event."""
    oracle = windowed_audit_oracle(register, lift=lift)
    for event in history.events:
        oracle.feed(event)
    return oracle.violations


class WindowedAuditOracle:
    """The syntactic audit oracle over a *stream* of events.

    It consumes events as they arrive and checks each audit at its
    response (a buffered history is simply fed in full, see
    :func:`check_audit_exactness`), holding only **carried state**:
    the first-occurrence timeline of distinct announced pairs plus
    read-of-``R`` markers for in-flight operations.  Every ``window``
    events the timeline is compacted — entries no outstanding audit can
    still cut through are folded into a base set — so the timeline is
    bounded by the window.
    The base set is not bounded: it keeps every distinct ``(reader,
    value)`` pair ever read, so it grows with the run whenever writers
    write fresh values, as does each audit's answer.  The companion of
    :class:`~repro.analysis.streamlin.StreamingLinChecker` in every
    stress validator (buffered, ``stress --online`` and ``repro serve``).

    ``decode`` mirrors ``register._decode_value`` (identity for the
    plain register, version-stripping for the max register); ``lift``
    maps each pair before comparison (e.g. :func:`strip_version`).
    It reads only ``R``'s primitives (``reads``); :meth:`count` takes
    the index of any other.
    """

    def __init__(
        self,
        r_name: str,
        *,
        decode: Optional[Callable[[Any], Any]] = None,
        lift: Optional[Lift] = None,
        window: int = 1024,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self._r_name = r_name
        self.reads = frozenset((r_name,))
        self._decode = decode or (lambda value: value)
        self._lift = lift
        self._window = window
        # Carried state: pairs already safe to freeze ...
        self._base: Set[Tuple[int, Any]] = set()
        self._compacted_to = 0  # every cut >= this is still answerable
        # ... plus the recent first-occurrence timeline (index-sorted).
        self._recent_indices: List[int] = []
        self._recent_pairs: List[Tuple[int, Any]] = []
        self._first_seen: Dict[Tuple[int, Any], int] = {}
        # First read-of-R index per in-flight operation.
        self._read_marks: Dict[Tuple[str, int], int] = {}
        self.violations: List[AuditViolation] = []
        self.events = 0
        self.audits_checked = 0
        #: Checked audits whose answer named at least one pair; an
        #: exactness verdict over only empty answers rests on no pairs.
        self.audits_nonempty = 0

    # -- event intake ------------------------------------------------------

    def feed(self, event: Any) -> Optional[AuditViolation]:
        """Consume one history event (in index order); returns the
        violation if the event completed a non-exact audit."""
        self.events += 1
        violation: Optional[AuditViolation] = None
        kind = type(event)
        if kind is PrimitiveEvent:
            if event.obj_name == self._r_name:
                if event.primitive == "fetch_xor":
                    j = event.args[0].bit_length() - 1
                    pair = (j, self._decode(event.result.val))
                    if self._lift is not None:
                        pair = self._lift(*pair)
                    if pair not in self._first_seen:
                        self._first_seen[pair] = event.index
                        self._recent_indices.append(event.index)
                        self._recent_pairs.append(pair)
                elif event.primitive == "read":
                    self._read_marks.setdefault(
                        (event.pid, event.op_id), event.index
                    )
        elif kind is Response:
            mark = self._read_marks.pop((event.pid, event.op_id), None)
            if event.op_name == "audit" and mark is not None:
                violation = self._check_audit(
                    event.pid, event.op_id, mark, event.result
                )
        elif kind is CrashEvent:
            # A crashed op never responds; free its marker so the
            # compaction safe-point keeps advancing.
            self._read_marks.pop((event.pid, event.op_id), None)
        if self.events % self._window == 0:
            self._roll()
        return violation

    def count(self, index: int) -> None:
        """Count a primitive this oracle does not read: the window
        rolls at the same events as when it is fed and ignored."""
        self.events += 1
        if self.events % self._window == 0:
            self._roll()

    def verdict(self, finished: bool = True) -> Tuple[str, Dict[str, Any]]:
        """``(status, payload)``: ``fail`` once an audit was inexact,
        however the stream ended; the payload counts the audits and
        pairs behind it."""
        status = LIN_FAIL if self.violations else LIN_OK
        return status, {
            "audits_checked": self.audits_checked,
            "audits_nonempty": self.audits_nonempty,
            "audit_resident_pairs": self.resident_pairs,
            "audit_violations": len(self.violations),
        }

    def _check_audit(
        self, pid: str, op_id: int, lin: int, reported: Any
    ) -> Optional[AuditViolation]:
        """Compare one audit's response with ``expected(lin)`` without
        building that set.  ``_first_seen`` keeps the base set and the
        recent timeline disjoint and duplicate-free, so the expected
        set has exactly ``len(base) + count`` members and ``reported``
        equals it iff it has that size and contains both parts."""
        self.audits_checked += 1
        if not isinstance(reported, (set, frozenset)):
            reported = set(reported)
        if reported:
            self.audits_nonempty += 1
        count = self._cut(lin)
        if (
            len(reported) == len(self._base) + count
            and self._base <= reported
            and reported.issuperset(self._recent_pairs[:count])
        ):
            return None
        expected = self.expected(lin)
        violation = AuditViolation(
            audit_pid=pid,
            audit_op_id=op_id,
            missing=frozenset(expected - reported),
            extra=frozenset(reported - expected),
        )
        self.violations.append(violation)
        return violation

    # -- the sliding window ------------------------------------------------

    def _roll(self) -> None:
        """Fold timeline entries that no outstanding operation can
        still cut through into the frozen base set."""
        safe = min(self._read_marks.values(), default=None)
        horizon = len(self._recent_indices)
        if safe is not None:
            horizon = bisect_left(self._recent_indices, safe)
        if horizon == 0:
            return
        self._base.update(self._recent_pairs[:horizon])
        if safe is None and self._recent_indices:
            self._compacted_to = self._recent_indices[horizon - 1] + 1
        elif safe is not None:
            self._compacted_to = safe
        del self._recent_indices[:horizon]
        del self._recent_pairs[:horizon]

    # -- queries -----------------------------------------------------------

    def _cut(self, before_index: int) -> int:
        """How many timeline entries precede ``before_index``; raises
        for a cut the window has already compacted past."""
        if before_index < self._compacted_to:
            raise ValueError(
                f"cut {before_index} compacted away (window already "
                f"rolled to {self._compacted_to})"
            )
        return bisect_left(self._recent_indices, before_index)

    def expected(self, before_index: int) -> Set[Tuple[int, Any]]:
        """Pairs of effective reads linearized before ``before_index``.

        Only answerable for cuts the window has not compacted past
        (every outstanding audit's cut, by construction).
        """
        count = self._cut(before_index)
        return self._base | set(self._recent_pairs[:count])

    @property
    def resident_pairs(self) -> int:
        """Pairs the oracle holds: the base set plus the timeline."""
        return len(self._base) + len(self._recent_pairs)


def windowed_audit_oracle(
    register, *, lift=None, window: int = 1024
) -> WindowedAuditOracle:
    """Build a :class:`WindowedAuditOracle` for an auditable register
    (uses its ``R`` name and value decoding)."""
    return WindowedAuditOracle(
        register.R.name,
        decode=register._decode_value,
        lift=lift,
        window=window,
    )


def check_audit_monotone(history: History) -> List[str]:
    """Per-auditor audit responses must be non-decreasing sets."""
    problems: List[str] = []
    latest: dict = {}
    for op in history.complete_operations(name="audit"):
        previous = latest.get(op.pid, frozenset())
        current = frozenset(op.result)
        if not previous <= current:
            problems.append(
                f"audit by {op.pid} shrank: lost {set(previous - current)}"
            )
        latest[op.pid] = current
    return problems
