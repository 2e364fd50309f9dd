"""The independence relation driving partial-order reduction.

Two scheduler steps *commute* when executing them in either order yields
(a) the same final configuration and (b) histories the repository's
oracles cannot tell apart.  The explorer prunes one of the two orders
(sleep sets, :mod:`repro.mc.explorer`), so the relation below must be an
*under*-approximation of true commutativity -- declaring dependent is
always sound, declaring independent requires the argument given here.

A step is observed after execution as a :class:`StepInfo`:

- ``kind``: ``"inv"`` for an invocation step (local computation up to
  the first primitive; emits an invocation event) or ``"prim"`` for a
  primitive step (applies the pending primitive; emits a primitive
  event, plus a response event if it completes the operation).
- ``obj``: vault index of the primitive's target object (-1 for
  invocation steps).
- ``response``: whether the step emitted a response event.
- ``draws``: vault indices of shared randomness (nonce sources) drawn
  by the step's *local* computation.

Steps of different processes are **dependent** exactly when:

1. both are primitives on the same base object -- swapping changes the
   object's primitive results and per-object event order;
2. one emits a response and the other an invocation -- swapping flips a
   real-time precedence edge, which the linearizability oracle observes
   (``resp < inv`` is the paper's happens-before);
3. both draw from the same shared nonce source -- nonce draws happen in
   local computation (Algorithm 2 line 23), so swapping exchanges the
   drawn values.

Everything else commutes: the final state is unchanged (distinct
locations, per-process local state is disjoint), each per-object
primitive subsequence is unchanged, each per-process projection is
unchanged, and no response/invocation pair is reordered -- which covers
every oracle wired into the checker (linearizability, audit exactness,
phase structure, fetch&xor uniqueness, value sequences, leakage
projections).

A sleeping step's :class:`StepInfo` stays valid while it sleeps: every
action executed past it is independent with it by construction, hence
leaves its process, its target object and its nonce sources untouched,
so re-executing it later yields the same observation.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class StepInfo(NamedTuple):
    """Post-execution observation of one scheduler step."""

    pid: str
    kind: str  # "inv" | "prim"
    obj: int  # vault index of the primitive target, -1 for "inv"
    response: bool  # did the step emit a response event?
    draws: Tuple[int, ...]  # vault indices of nonce sources drawn


def independent(x: StepInfo, y: StepInfo) -> bool:
    """Whether two observed steps of distinct processes commute."""
    if x.pid == y.pid:
        return False
    if x.obj >= 0 and x.obj == y.obj:
        return False  # same shared location
    if x.response and y.kind == "inv":
        return False  # would reorder a resp < inv precedence edge
    if y.response and x.kind == "inv":
        return False
    if x.draws and y.draws and set(x.draws) & set(y.draws):
        return False  # both consume the same shared nonce stream
    return True


Factors = Tuple[Tuple[StepInfo, ...], ...]


def foata_insert(factors: Factors, step: StepInfo) -> Factors:
    """Append a step to a prefix's Foata normal form.

    The Foata factorisation is the canonical representative of a
    Mazurkiewicz trace: a sequence of factors, each a set of pairwise
    independent steps, where every step sits in the first factor after
    the last one containing a step it depends on.  Two prefixes (from
    the same initial configuration) are related by swapping adjacent
    independent steps **iff** their factorisations are equal.  Any
    memo that transfers history-dependent verdicts between prefixes
    must key on it: equal state alone is not enough, the pasts must be
    equivalent too.  The sleep-set explorer never visits two prefixes
    with one factorisation (``tests/test_mc.py`` pins this), so only a
    key coarser than the trace -- e.g. canonical up to a permutation
    of symmetric processes -- can ever merge its nodes.

    Factors are kept as sorted tuples so equality is canonical.
    """
    position = 0
    for index in range(len(factors) - 1, -1, -1):
        if any(not independent(step, other) for other in factors[index]):
            position = index + 1
            break
    if position == len(factors):
        return factors + ((step,),)
    updated = tuple(sorted(factors[position] + (step,)))
    return factors[:position] + (updated,) + factors[position + 1:]
