"""The fault vocabulary and the shared arrival-point interpreter.

Every decision class names its family once; the family registry, the
``--faults`` band order and the fuzz trace kinds must agree with it.
:class:`~repro.faults.ArrivalInterpreter` is the one place the
arrival semantics live (arrival numbering, crash-at-next-primitive,
ignored omissions and families), so it is pinned here directly;
``tests/test_rt_equivalence.py`` checks the runtimes carry its
decisions out identically.  The hold-and-release rule both real
runtimes follow is pure interpreter state too (requests are opaque
tokens here), so it is pinned here without threads or processes.
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


# -- the hold-and-release rule ------------------------------------------------


def test_delay_releases_after_exactly_k_further_arrivals():
    interp = ArrivalInterpreter(
        ScriptedFaultPlan({1: DelayDecision("p", steps=3)}), FAULT_FAMILIES
    )
    assert interp.admit("p", "R", "read", "p1") == (
        interp.plan.decisions[1], True,
    )
    for arrival in range(2, 5):
        assert interp.release(live=2) == []
        assert interp.admit("q", "R", "read", f"q{arrival}") == (None, False)
    # Three further arrivals: due now, and not a moment earlier.
    assert interp.release(live=2) == ["p1"]
    assert interp.held == []


def test_partition_holds_later_requests_from_the_severed_pids():
    interp = ArrivalInterpreter(
        ScriptedFaultPlan({1: PartitionDecision(("p", "q"), steps=4)}),
        FAULT_FAMILIES,
    )
    # The deciding arrival comes from r; p's and q's later ones are held.
    assert interp.admit("r", "R", "read", "r1") == (
        interp.plan.decisions[1], False,
    )
    assert interp.admit("p", "R", "read", "p2") == (None, True)
    assert interp.admit("r", "R", "read", "r3") == (None, False)
    assert interp.admit("q", "R", "read", "q4") == (None, True)
    assert interp.release(live=3) == []
    # Arrival 5 is the first after the partition's 4: p and q heal.
    assert interp.admit("r", "R", "read", "r5") == (None, False)
    assert interp.release(live=3) == ["p2", "q4"]
    assert interp.admit("p", "R", "read", "p6") == (None, False)


def test_release_all_in_arrival_order_once_every_live_worker_is_held():
    plan = ScriptedFaultPlan({
        1: DelayDecision("q", steps=10**6),
        2: PartitionDecision(("p",), steps=10**6),
        3: DelayDecision("r", steps=10**6),
    })
    interp = ArrivalInterpreter(plan, FAULT_FAMILIES)
    assert interp.admit("q", "R", "read", "q1")[1]
    assert interp.admit("p", "R", "read", "p2")[1]
    assert interp.release(live=3) == []
    assert interp.admit("r", "R", "read", "r3")[1]
    assert interp.release(live=3) == ["q1", "p2", "r3"]
    assert interp.held == []
    # Every partition healed with the release.
    assert interp.admit("p", "R", "read", "p4") == (None, False)


def test_release_all_when_a_held_worker_is_all_that_is_left():
    interp = ArrivalInterpreter(
        ScriptedFaultPlan({1: DelayDecision("p", steps=10**6)}),
        FAULT_FAMILIES,
    )
    assert interp.admit("p", "R", "read", "p1")[1]
    assert interp.release(live=2) == []
    # The other worker finished: the held one is the only one live.
    assert interp.release(live=1) == ["p1"]


def test_a_released_request_is_never_ruled_on_again():
    plan = _Recording({1: DelayDecision("p", steps=1)})
    interp = ArrivalInterpreter(plan, FAULT_FAMILIES)
    assert interp.admit("p", "R", "read", "p1")[1]
    assert interp.admit("q", "R", "read", "q2") == (None, False)
    assert interp.release(live=2) == ["p1"]
    assert plan.calls == [(1, "p"), (2, "q")]
    assert interp.arrivals == 2


def test_crashed_and_omitted_requests_are_never_held():
    plan = ScriptedFaultPlan({
        1: PartitionDecision(("p",), steps=10),
        2: OmitDecision("p"),
        3: CrashDecision("p"),
    })
    interp = ArrivalInterpreter(plan, FAULT_FAMILIES)
    assert interp.admit("p", "R", "read", "p1")[1]
    assert interp.admit("p", "R", "read", "p2") == (plan.decisions[2], False)
    assert interp.admit("p", "R", "read", "p3") == (plan.decisions[3], False)
    assert [pid for _, pid, _ in interp.held] == ["p"]
