"""``repro.mc`` -- the model-checking subsystem.

A partial-order-reduced, checkpoint-driven (and optionally parallel)
explorer:

- :func:`explore` -- serial exploration of an arbitrary
  ``(factory, check)`` scenario; ``reduce=False`` enumerates every raw
  interleaving.
- :func:`explore_parallel` -- frontier fan-out of a *named* scenario
  across the ``repro.engine`` worker pool with JSONL
  checkpoint/resume.
- :mod:`repro.mc.scenarios` -- the named scenario catalogue (the E13
  suite lives here).
- :mod:`repro.mc.independence` -- the soundness core: which steps
  commute, and why the repository's oracles cannot tell.
- :func:`configuration_fingerprint` -- a stable hash of a live
  configuration; the fuzz coverage sampler's novelty signal (the
  explorer itself keeps no state memo: sleep sets never revisit a
  trace).

See DESIGN.md section 5 for the soundness argument and the
parallel-frontier protocol.
"""

from repro.mc.explorer import (
    ExplorationBudgetExceeded,
    ExplorationReport,
    configuration_fingerprint,
    count_interleavings,
    explore,
)
from repro.mc.independence import StepInfo, independent
from repro.mc.parallel import explore_parallel


__all__ = [
    "ExplorationBudgetExceeded",
    "ExplorationReport",
    "StepInfo",
    "configuration_fingerprint",
    "count_interleavings",
    "explore",
    "explore_parallel",
    "independent",
]
