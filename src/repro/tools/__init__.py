"""Developer tooling over recorded histories.

- :mod:`repro.tools.trace` -- an ASCII operation timeline showing
  concurrency and linearization-relevant steps at a glance.  The
  round-trippable record of a run is its JSONL event log
  (:mod:`repro.sim.event_log`).
"""

from repro.tools.trace import render_timeline

__all__ = ["render_timeline"]
