"""Named model-checking scenarios and their correctness properties.

Contract
--------

A *scenario builder* is a zero-argument callable returning a pair
``(factory, check)`` suitable for :func:`repro.mc.explore`: ``factory``
builds a fresh fully programmed system, ``check`` judges one complete
execution.  Builders are registered under stable string names so that

- the E13 harness driver, the ``python -m repro check`` CLI and the
  benchmarks share one scenario catalogue, and
- parallel frontier workers (:mod:`repro.mc.parallel`) can reconstruct
  a scenario from its *name* -- closures do not pickle, names do.

The checks wire the exploration into the repository's oracles: the
linearizability checker against the sequential specifications of
:mod:`repro.analysis.specs`, audit exactness and effectiveness
(:mod:`repro.analysis.audit_checks`), the pad single-use discipline
(fetch&xor uniqueness), and the leakage discipline of Lemma 7
(:func:`check_tracking_ciphertext`: every tracking-bits word any
process observes is one-time-pad ciphertext of the announce set).  All
of these are invariant under the independence relation of
:mod:`repro.mc.independence`, which is what makes reduced exploration
sound for them.

Complexity: building a scenario is O(processes); the interesting cost
is exploration itself (see :mod:`repro.mc.explorer`).

Typical use::

    from repro.mc.scenarios import get_scenario
    factory, check = get_scenario("alg1-w1-r1")()
    report = explore(factory, check)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core.auditable_register import AuditableRegister
from repro.crypto.pad import OneTimePadSequence
from repro.sim.runner import Simulation

ScenarioBuilder = Callable[[], Tuple[Callable, Callable]]

_REGISTRY: Dict[str, ScenarioBuilder] = {}


def register_scenario(name: str):
    """Decorator registering a scenario builder under a stable name."""

    def deco(builder: ScenarioBuilder) -> ScenarioBuilder:
        _REGISTRY[name] = builder
        return builder

    return deco


def get_scenario(name: str) -> ScenarioBuilder:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Algorithm 1 scenarios (one operation per process, post-hoc audit)
# ----------------------------------------------------------------------

def register_scenario_factory(
    readers, writers, auditors, pre_write=False, pre_read=False
):
    """Factory for a one-op-per-process Algorithm 1 scenario.

    With ``pre_write`` a write completes before exploration starts, so
    explored reads are direct.  With ``pre_read`` reader 0 additionally
    completes a read before exploration, so its explored read exercises
    the silent/direct decision against a concurrent write (the D-phase
    subtlety of Section 3.2).  The check appends a post-hoc audit.
    """

    def factory():
        sim = Simulation()
        m = max(readers, 1)
        reg = AuditableRegister(
            num_readers=m, initial="v0",
            pad=OneTimePadSequence(m, seed=0),
        )
        if pre_write:
            setup = reg.writer(sim.spawn("setup-writer"))
            sim.add_program("setup-writer", [setup.write_op("pre")])
            sim.run_process("setup-writer")
        for j in range(readers):
            handle = reg.reader(sim.spawn(f"r{j}"), j)
            if pre_read and j == 0:
                sim.add_program(f"r{j}", [handle.read_op()])
                sim.run_process(f"r{j}")
            sim.add_program(f"r{j}", [handle.read_op()])
        for i in range(writers):
            handle = reg.writer(sim.spawn(f"w{i}"))
            sim.add_program(f"w{i}", [handle.write_op(f"x{i}")])
        for a in range(auditors):
            handle = reg.auditor(sim.spawn(f"a{a}"))
            sim.add_program(f"a{a}", [handle.audit_op()])
        return sim, reg

    return factory


def check_tracking_ciphertext(history, reg):
    """Leakage oracle: everything observed in ``R``'s tracking field is
    one-time-pad ciphertext (the mechanical core of Lemma 7).

    Replays ``R``'s word through the recorded events and verifies, for
    every ``read``/``fetch&xor`` observation, that the tracking bits
    equal ``mask(seq) XOR (announce bits applied since the install)``
    -- i.e. the encrypted announce set, never plaintext -- and that
    every installed word carries the fresh mask of its sequence number.
    Together with fetch&xor uniqueness (mask single-use) this is what
    makes curious readers' views uninformative in *every* interleaving,
    not just the sampled ones of E4/E5.
    """
    pad = reg.pad
    problems = []
    current = None  # R's word as replayed from the event log
    announced = 0  # xor of announce bits since the last install
    # Violations are labelled by R's per-object event ordinal, not the
    # global history index: per-object order is trace-invariant, so
    # baseline and reduced runs report identical verdict sets.
    for ordinal, event in enumerate(
        history.primitive_events(obj_name=reg.R.name)
    ):
        if event.primitive == "compare_and_swap":
            if event.result:
                installed = event.args[1]
                if installed.bits != pad.mask(installed.seq):
                    problems.append(
                        f"R event #{ordinal}: installed word seq="
                        f"{installed.seq} does not carry the fresh "
                        "pad mask"
                    )
                current, announced = installed, 0
        elif event.primitive in ("read", "fetch_xor"):
            seen = event.result
            if current is None:
                current = seen  # the constructor-installed word
            elif seen != current:
                problems.append(
                    f"R event #{ordinal}: observed R word diverges "
                    "from the replayed word"
                )
                break
            expected = pad.mask(current.seq) ^ announced
            if seen.bits != expected:
                problems.append(
                    f"R event #{ordinal}: observed tracking bits "
                    f"{seen.bits:#x} are not the pad ciphertext of the "
                    f"announce set (expected {expected:#x})"
                )
            if event.primitive == "fetch_xor":
                announced ^= event.args[0]
                current = current.with_bits(
                    current.bits ^ event.args[0]
                )
    return problems


def _lin_verdict(result):
    """A fastlin result as a scenario verdict.  An undecided search is
    surfaced as a violation so a budget-starved check cannot be mistaken
    for a verified interleaving."""
    if result.undecided:
        return "linearizability undecided (node budget exhausted)"
    if not result.ok:
        return "not linearizable"
    return None


def _auditable_check(sim, reg, make_spec, initial, monotone):
    """Audit exactness, the Lemma 7 and phase invariants, and
    linearizability against ``make_spec(initial, reader_index)``, for
    one complete execution of an Alg. 1 or Alg. 2 register."""
    from repro.analysis import (
        check_audit_exactness,
        check_fetch_xor_uniqueness,
        check_history,
        check_phase_structure,
        check_value_sequence,
    )

    # A post-hoc audit after every explored interleaving: Lemma 5 says
    # it must report every read that became effective.
    post = reg.auditor(sim.spawn(f"post-auditor-{sim.steps_taken}"))
    sim.add_program(post.pid, [post.audit_op()])
    sim.run_process(post.pid)

    history = sim.history
    problems = (
        check_audit_exactness(history, reg)
        + check_phase_structure(history, reg)
        + check_fetch_xor_uniqueness(history, reg)
        + check_value_sequence(history, reg, monotone=monotone)
        + check_tracking_ciphertext(history, reg)
    )
    if problems:
        return "; ".join(str(p) for p in problems)
    reader_index = {f"r{j}": j for j in range(reg.num_readers)}
    return _lin_verdict(check_history(
        history.operations(), make_spec(initial, reader_index)
    ))


def register_scenario_check(sim, reg):
    """Theorem 8 / Lemma 5 oracle for one complete Alg. 1 execution."""
    from repro.analysis import auditable_register_spec

    return _auditable_check(
        sim, reg, auditable_register_spec, reg.initial, False
    )


# ----------------------------------------------------------------------
# Algorithm 2 scenarios
# ----------------------------------------------------------------------

def max_scenario_factory(readers, writers, values=(5, 3)):
    """One-op-per-process Algorithm 2 scenario (nonces seeded)."""
    from repro.core.auditable_max_register import AuditableMaxRegister
    from repro.crypto.nonce import NonceSource

    def factory():
        sim = Simulation()
        m = max(readers, 1)
        reg = AuditableMaxRegister(
            num_readers=m, initial=0,
            pad=OneTimePadSequence(m, seed=0),
            nonces=NonceSource(seed=0),
        )
        for j in range(readers):
            handle = reg.reader(sim.spawn(f"r{j}"), j)
            sim.add_program(f"r{j}", [handle.read_op()])
        for i in range(writers):
            handle = reg.writer(sim.spawn(f"w{i}"))
            sim.add_program(f"w{i}", [handle.write_max_op(values[i])])
        return sim, reg

    return factory


def max_scenario_check(sim, reg):
    """Theorem 40 oracle for one complete Alg. 2 execution."""
    from repro.analysis import auditable_max_register_spec

    return _auditable_check(sim, reg, auditable_max_register_spec, 0, True)


# ----------------------------------------------------------------------
# Deliberately buggy scenarios: known-violation regression targets
# ----------------------------------------------------------------------
#
# These are *not* part of the E13 suite (the default `repro check` run
# must stay green); they are registered so that the schedule fuzzer
# (repro.fuzz), the model checker and CI smoke jobs share seeded bugs
# with a known verdict.  The lost-update counter is the classic
# non-linearizable object: increments implemented as a non-atomic
# read-then-write race, and a post-hoc read observes the lost update.

def buggy_counter_factory(incrementers=2, noise_readers=0, noise_ops=2):
    """A counter whose ``update`` is a non-atomic read;write pair.

    With >= 2 incrementers some interleavings lose an update; a
    post-hoc read (appended by the check) then returns a total smaller
    than the number of completed updates, which no linearization of
    the counter spec can explain.  ``noise_readers`` add processes
    spinning on an unrelated register, diluting the racy steps so the
    violating interleavings become rarer (the fuzz benchmark's
    time-to-first-violation ladder scales this knob).
    """
    from repro.memory.register import AtomicRegister
    from repro.sim.process import Op

    def factory():
        sim = Simulation()
        counter = AtomicRegister("counter", 0)
        noise = AtomicRegister("noise", 0)

        def increment(delta):
            value = yield from counter.read()
            yield from counter.write(value + delta)
            return None

        def spin():
            for _ in range(noise_ops):
                yield from noise.read()
            return None

        for i in range(incrementers):
            sim.spawn(f"inc{i}")
            sim.add_program(f"inc{i}", [Op("update", increment, (1,))])
        for j in range(noise_readers):
            sim.spawn(f"noise{j}")
            sim.add_program(f"noise{j}", [Op("noise", spin)])
        return sim, counter

    return factory


def _read_back_check(sim, obj, names, spec):
    """Fastlin oracle: a post-hoc read of ``obj``, then the history's
    ``names`` ops checked against ``spec``."""
    from repro.analysis.fastlin import check_history
    from repro.sim.process import Op

    def read_back():
        value = yield from obj.read()
        return value

    pid = f"post-reader-{sim.steps_taken}"
    sim.spawn(pid)
    sim.add_program(pid, [Op("read", read_back)])
    sim.run_process(pid)
    ops = [
        op
        for op in sim.history.complete_operations()
        if op.name in names
    ]
    return _lin_verdict(check_history(ops, spec))


def buggy_counter_check(sim, counter):
    """Fastlin oracle: the post-hoc read must see every update."""
    from repro.analysis.specs import counter_object_spec

    return _read_back_check(
        sim, counter, ("update", "read"), counter_object_spec()
    )


def buggy_maxreg_factory(values=(5, 3), noise_readers=0, noise_ops=2):
    """A max register whose ``write_max`` is a non-atomic read;test;write.

    The violating interleavings need a depth-2 ordering (the small
    writer's read before the large writer's install, its write after),
    so they are rarer than the counter's lost update -- the shape the
    PCT sampler's change points are built for.
    """
    from repro.memory.register import AtomicRegister
    from repro.sim.process import Op

    def factory():
        sim = Simulation()
        reg = AtomicRegister("maxreg", 0)
        noise = AtomicRegister("noise", 0)

        def write_max(value):
            current = yield from reg.read()
            if value > current:
                yield from reg.write(value)
            return None

        def spin():
            for _ in range(noise_ops):
                yield from noise.read()
            return None

        for i, value in enumerate(values):
            sim.spawn(f"w{i}")
            sim.add_program(f"w{i}", [Op("write_max", write_max, (value,))])
        for j in range(noise_readers):
            sim.spawn(f"noise{j}")
            sim.add_program(f"noise{j}", [Op("noise", spin)])
        return sim, reg

    return factory


def buggy_maxreg_check(sim, reg):
    """Fastlin oracle against the max-register spec."""
    from repro.analysis.specs import max_register_spec

    return _read_back_check(
        sim, reg, ("write_max", "read"), max_register_spec(0)
    )


@register_scenario("buggy-counter")
def _buggy_counter():
    # One noise process keeps the minimal counterexample strictly
    # below the full run length (the shrinker crashes the noise away).
    return (
        buggy_counter_factory(2, noise_readers=1, noise_ops=1),
        buggy_counter_check,
    )


@register_scenario("buggy-counter-deep")
def _buggy_counter_deep():
    return (
        buggy_counter_factory(2, noise_readers=2, noise_ops=2),
        buggy_counter_check,
    )


@register_scenario("buggy-maxreg")
def _buggy_maxreg():
    return (
        buggy_maxreg_factory(noise_readers=1, noise_ops=1),
        buggy_maxreg_check,
    )


@register_scenario("buggy-maxreg-deep")
def _buggy_maxreg_deep():
    return (
        buggy_maxreg_factory(noise_readers=2, noise_ops=3),
        buggy_maxreg_check,
    )


# ----------------------------------------------------------------------
# The registry: the E13 suite plus CLI-facing names
# ----------------------------------------------------------------------

@register_scenario("alg1-w1-r1")
def _alg1_w1_r1():
    return (register_scenario_factory(1, 1, 0), register_scenario_check)


@register_scenario("alg1-w1-a1")
def _alg1_w1_a1():
    return (register_scenario_factory(0, 1, 1), register_scenario_check)


@register_scenario("alg1-w2")
def _alg1_w2():
    return (register_scenario_factory(0, 2, 0), register_scenario_check)


@register_scenario("alg1-r2-prewrite")
def _alg1_r2_prewrite():
    return (
        register_scenario_factory(2, 0, 0, pre_write=True),
        register_scenario_check,
    )


@register_scenario("alg1-r1-a1-prewrite")
def _alg1_r1_a1_prewrite():
    return (
        register_scenario_factory(1, 0, 1, pre_write=True),
        register_scenario_check,
    )


@register_scenario("alg1-silent-read")
def _alg1_silent_read():
    return (
        register_scenario_factory(1, 1, 0, pre_write=True, pre_read=True),
        register_scenario_check,
    )


@register_scenario("alg2-w1-r1")
def _alg2_w1_r1():
    return (max_scenario_factory(1, 1), max_scenario_check)


@register_scenario("alg2-w2")
def _alg2_w2():
    return (max_scenario_factory(0, 2), max_scenario_check)


#: The E13 suite: (human title, registry name), in driver order.
E13_SUITE: List[Tuple[str, str]] = [
    ("Alg1: 1 write || 1 read", "alg1-w1-r1"),
    ("Alg1: 1 write || 1 audit", "alg1-w1-a1"),
    ("Alg1: 2 writes", "alg1-w2"),
    ("Alg1: 2 reads (after a write)", "alg1-r2-prewrite"),
    ("Alg1: 1 read || 1 audit (after a write)", "alg1-r1-a1-prewrite"),
    ("Alg1: 1 write || 1 silent-or-direct read", "alg1-silent-read"),
    ("Alg2: 1 writeMax || 1 read", "alg2-w1-r1"),
    ("Alg2: 2 writeMax (5 || 3)", "alg2-w2"),
]
