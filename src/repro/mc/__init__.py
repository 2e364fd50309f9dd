"""``repro.mc`` -- the model-checking subsystem.

A partial-order-reduced, checkpoint-driven, forking explorer:

- :func:`explore` -- exploration of an arbitrary ``(factory, check)``
  scenario; ``reduce=False`` enumerates every raw interleaving.  The
  tree is split at a fixed frontier depth and the subtrees are shared
  out over one forked process per available CPU where a fork is safe
  (:mod:`repro.mc.fanout`); the report is the serial DFS's, field for
  field, whatever the number of processes.
- :mod:`repro.mc.scenarios` -- the named scenario catalogue (the E13
  suite lives here); ``python -m repro check`` runs its scenarios as
  one ``check`` campaign section, one resumable record per point.
- :mod:`repro.mc.independence` -- the soundness core: which steps
  commute, and why the repository's oracles cannot tell.
- :func:`configuration_fingerprint` -- a stable hash of a live
  configuration; the fuzz coverage sampler's novelty signal (the
  explorer itself keeps no state memo: sleep sets never revisit a
  trace).

See DESIGN.md section 5 for the soundness argument and the fan-out
protocol.
"""

from repro.mc.explorer import (
    ExplorationBudgetExceeded,
    ExplorationReport,
    configuration_fingerprint,
    count_interleavings,
    explore,
)
from repro.mc.independence import StepInfo, independent


__all__ = [
    "ExplorationBudgetExceeded",
    "ExplorationReport",
    "StepInfo",
    "configuration_fingerprint",
    "count_interleavings",
    "explore",
    "independent",
]
