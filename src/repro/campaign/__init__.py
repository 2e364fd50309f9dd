"""repro.campaign: one declarative spec drives every subsystem.

Sweeps, model checks, stress runs, fuzz campaigns and batched
linearizability verdicts used to be five hand-rolled CLI matrices.
This package redesigns the public API around a single declarative
campaign spec: a :class:`CampaignSpec` holds ordered sections, each
section crosses :class:`Axis` values (scenarios x runtimes x samplers
x fault plans x seeds) into concrete :class:`CampaignPoint`\\ s, and
:mod:`repro.campaign.compile` lowers those points onto the PR-1
execution engine's tasks.  One command --

    python -m repro campaign run spec.toml --workers 8 --out nightly

-- runs the whole matrix under the engine's byte-identical resumable
JSONL contract, with per-section checkpoints: kill it mid-fuzz and the
rerun skips the finished check section entirely and resumes the fuzz
section mid-file, producing byte-identical records to an uninterrupted
run.

The same spec value is constructible from the Python builder API or
from a TOML/JSON file (:func:`load_spec`).  The ``sweep``, ``check``,
``fuzz``, ``stress`` and ``lin`` subcommands each build a one-section
spec from their flags, validate it with :func:`compile_section`, and judge their
results with the same executor rules; ``--print-spec`` prints that
spec.  Execution dispatches through the :class:`Executor` protocol
(:mod:`repro.campaign.executors`).  DESIGN.md section 12 carries the
full model.
"""

from repro.campaign.compile import compile_section, compile_spec
from repro.campaign.executors import (
    Executor,
    campaign_point_task,
    executor_for,
    executor_names,
    register_executor,
)
from repro.campaign.options import EngineOptions, OutputOptions
from repro.campaign.report import axis_slices, render_outcome
from repro.campaign.run import (
    CampaignOutcome,
    SectionOutcome,
    run_section,
    run_spec,
    section_checkpoint,
)
from repro.campaign.spec import (
    Axis,
    CampaignPoint,
    CampaignSpec,
    Section,
    SpecError,
    dumps_spec,
    load_spec,
    loads_spec,
)

__all__ = [
    "Axis",
    "CampaignOutcome",
    "CampaignPoint",
    "CampaignSpec",
    "EngineOptions",
    "Executor",
    "OutputOptions",
    "Section",
    "SectionOutcome",
    "SpecError",
    "axis_slices",
    "campaign_point_task",
    "compile_section",
    "compile_spec",
    "dumps_spec",
    "executor_for",
    "executor_names",
    "load_spec",
    "loads_spec",
    "register_executor",
    "render_outcome",
    "run_section",
    "run_spec",
    "section_checkpoint",
]
