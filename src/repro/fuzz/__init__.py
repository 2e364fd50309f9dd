"""``repro.fuzz`` -- coverage-guided schedule fuzzing.

Between the model checker (sound but capped at small scenarios,
:mod:`repro.mc`) and the thread stress harness (real hardware, but
only the interleavings the OS happens to produce, :mod:`repro.rt`)
sits randomized schedule search: seeded samplers walk the schedule
space of the *simulator* -- uniform, PCT-style priority scheduling
with probabilistic bug-finding guarantees, or coverage-guided by
configuration fingerprints (:func:`repro.mc.configuration_fingerprint`)
-- every run records a replayable trace, violations are delta-debugged
down to locally-minimal counterexample schedules, and campaigns fan
out across the execution engine with byte-identical, resumable JSONL
records.

- :mod:`repro.fuzz.samplers` -- schedule samplers + registry.
- :mod:`repro.fuzz.targets` -- the target catalogue (every
  model-checking scenario, plus crash-injecting fuzz-only targets).
- :mod:`repro.fuzz.executor` -- run/replay/lenient execution.
- :mod:`repro.fuzz.trace` -- the canonical trace codec.
- :mod:`repro.fuzz.shrinker` -- counterexample minimization.
- :mod:`repro.fuzz.campaign` -- engine-backed campaigns
  (``python -m repro fuzz``).

See DESIGN.md section 9 for sampler guarantees, the shrinker's
soundness argument and the trace format.
"""

from repro.fuzz.executor import (
    DEFAULT_MAX_STEPS,
    FuzzRunResult,
    ReplayMismatch,
    decision_to_fault,
    replay_trace,
    run_one,
)
from repro.fuzz.samplers import (
    CoverageSampler,
    FaultSampler,
    PCTSampler,
    ScheduleSampler,
    UniformSampler,
    sampler_from_name,
    sampler_names,
)
from repro.fuzz.shrinker import ShrinkResult, shrink_trace
from repro.fuzz.targets import (
    FuzzTarget,
    get_target,
    register_target,
    target_names,
    violating_target_names,
)
from repro.fuzz.trace import (
    ScheduleTrace,
    TraceFormatError,
    decision_weight,
    dumps_trace,
    loads_trace,
    partition_entry,
    trace_from_payload,
    trace_to_payload,
)

__all__ = [
    "DEFAULT_MAX_STEPS",
    "CoverageSampler",
    "FaultSampler",
    "FuzzRunResult",
    "FuzzTarget",
    "PCTSampler",
    "ReplayMismatch",
    "ScheduleSampler",
    "ScheduleTrace",
    "ShrinkResult",
    "TraceFormatError",
    "UniformSampler",
    "decision_to_fault",
    "decision_weight",
    "dumps_trace",
    "get_target",
    "loads_trace",
    "partition_entry",
    "register_target",
    "replay_trace",
    "run_one",
    "sampler_from_name",
    "sampler_names",
    "shrink_trace",
    "target_names",
    "trace_from_payload",
    "trace_to_payload",
    "violating_target_names",
]


def __getattr__(name):
    # Lazy: the campaign pulls in repro.engine (multiprocessing task
    # plumbing); keep `import repro.fuzz` light for trace/replay users.
    if name in ("run_batch", "run_campaign", "CampaignReport"):
        from repro.fuzz import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
