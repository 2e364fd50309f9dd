"""The fault vocabulary and the shared arrival-point interpreter.

Every decision class names its family once; the family registry, the
``--faults`` band order and the fuzz trace kinds must agree with it.
:class:`~repro.faults.ArrivalInterpreter` is the one place the
arrival semantics live (arrival numbering, crash-at-next-primitive,
ignored omissions and families), so it is pinned here directly;
``tests/test_rt_equivalence.py`` checks the runtimes carry its
decisions out identically.
"""

from repro.faults import (
    FAULT_FAMILIES,
    ArrivalInterpreter,
    FaultPlan,
    ScriptedFaultPlan,
)
from repro.fuzz.executor import decision_to_fault
from repro.fuzz.trace import FAULT_KINDS, PARTITION
from repro.sim.scheduler import (
    FAULT_DECISIONS,
    CrashDecision,
    DelayDecision,
    DuplicateDecision,
    OmitDecision,
    PartitionDecision,
)


class _Recording(FaultPlan):
    """Scripted by arrival index; records every ``decide`` call."""

    def __init__(self, decisions):
        self.decisions = decisions
        self.calls = []

    def decide(self, step, pid, obj_name, primitive):
        self.calls.append((step, pid))
        return self.decisions.get(step)


def test_registry_families_match_band_order_literal():
    assert FAULT_FAMILIES == (
        "crash", "delay", "partition", "dup", "omit", "recover"
    )
    assert {cls.family for cls in FAULT_DECISIONS.values()} == set(
        FAULT_FAMILIES
    )
    for family, cls in FAULT_DECISIONS.items():
        assert cls.family == family


def test_every_trace_kind_maps_to_its_family_class():
    for kind in FAULT_KINDS:
        entry = (kind, "p,q", 3) if kind == PARTITION else (kind, "p")
        decision = decision_to_fault(entry)
        assert type(decision) is FAULT_DECISIONS[kind]
        assert decision.family == kind


def test_arrivals_are_numbered_from_one():
    plan = _Recording({})
    interp = ArrivalInterpreter(plan, FAULT_FAMILIES)
    for pid in ("p", "q", "p"):
        assert interp.arrive(pid, "R", "read") is None
    assert plan.calls == [(1, "p"), (2, "q"), (3, "p")]
    assert interp.arrivals == 3


def test_crash_of_another_pid_dooms_it_at_its_next_arrival():
    plan = _Recording({1: CrashDecision("q")})
    interp = ArrivalInterpreter(plan, FAULT_FAMILIES)
    assert interp.arrive("p", "R", "read") is None
    assert interp.arrive("p", "R", "read") is None
    doomed = interp.arrive("q", "R", "read")
    assert isinstance(doomed, CrashDecision) and doomed.pid == "q"
    # The doomed arrival consumes an index without consulting the plan.
    assert plan.calls == [(1, "p"), (2, "p")]
    assert interp.arrivals == 3
    assert interp.arrive("q", "R", "read") is None


def test_crash_of_the_requester_is_returned():
    interp = ArrivalInterpreter(
        ScriptedFaultPlan({1: CrashDecision("p")}), FAULT_FAMILIES
    )
    decision = interp.arrive("p", "R", "read")
    assert isinstance(decision, CrashDecision) and decision.pid == "p"


def test_omit_only_drops_the_requesters_own_message():
    interp = ArrivalInterpreter(
        ScriptedFaultPlan({1: OmitDecision("q"), 2: OmitDecision("p")}),
        FAULT_FAMILIES,
    )
    assert interp.arrive("p", "R", "read") is None
    assert isinstance(interp.arrive("p", "R", "read"), OmitDecision)


def test_side_effect_targets_and_delay_pass_through():
    decisions = {
        1: DuplicateDecision("q"),
        2: PartitionDecision(("q",), steps=2),
        3: DelayDecision("p", steps=2),
    }
    interp = ArrivalInterpreter(ScriptedFaultPlan(decisions), FAULT_FAMILIES)
    for step in (1, 2, 3):
        assert interp.arrive("p", "R", "read") is decisions[step]


def test_unsupported_families_are_ignored_but_consume_an_index():
    plan = _Recording({
        1: OmitDecision("p"),
        2: CrashDecision("q"),
        3: DelayDecision("p"),
    })
    interp = ArrivalInterpreter(plan, ("delay",))
    assert interp.arrive("p", "R", "read") is None
    # A crash is outside the families: it dooms nobody.
    assert interp.arrive("p", "R", "read") is None
    assert isinstance(interp.arrive("p", "R", "read"), DelayDecision)
    assert interp.arrive("q", "R", "read") is None
    assert [step for step, _ in plan.calls] == [1, 2, 3, 4]


def test_decide_is_looked_up_on_every_arrival():
    """Instrumentation patches ``decide`` on the plan class after the
    interpreter exists; the patch must see every arrival."""
    seen = []
    original = ScriptedFaultPlan.decide

    def counting(self, step, pid, obj_name, primitive):
        seen.append(step)
        return original(self, step, pid, obj_name, primitive)

    interp = ArrivalInterpreter(ScriptedFaultPlan(), FAULT_FAMILIES)
    ScriptedFaultPlan.decide = counting
    try:
        interp.arrive("p", "R", "read")
        interp.arrive("p", "R", "read")
    finally:
        ScriptedFaultPlan.decide = original
    assert seen == [1, 2]
