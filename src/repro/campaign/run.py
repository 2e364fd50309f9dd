"""The campaign runner: sections through the engine, in order.

Each section runs as one engine invocation
(:func:`repro.engine.engine.run_tasks`) over its compiled tasks, with
its own JSONL checkpoint at ``<out>.<section>.jsonl``.  Resume is
therefore *per section*: re-running an interrupted campaign skips
every section whose records are complete (the engine validates and
reuses them without executing anything) and picks the interrupted
section back up mid-file -- finish the check section, crash during
fuzz, resume straight into the fuzz section's remaining points.

Sections whose executor is ``serial_only`` (stress) run with one
worker regardless of the requested fan-out; everything else uses the
campaign's worker pool.  Exit-code contract, aggregated bottom-up from
point verdicts: ``0`` all points PASS, ``1`` any point FAIL, ``2`` no
failures but at least one PARTIAL (a budget expired somewhere) -- the
same 0/1/2 convention every subcommand honours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.compile import compile_section
from repro.campaign.executors import campaign_point_task, executor_for
from repro.campaign.spec import CampaignSpec, Section, SpecError
from repro.engine.aggregate import EXIT_CODES, fold_verdicts

VERDICTS = ("PASS", "FAIL", "PARTIAL")


@dataclass
class SectionOutcome:
    """One section's aggregated result."""

    name: str
    kind: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    workers: int = 1
    elapsed: float = 0.0
    checkpoint: Optional[str] = None

    @property
    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for record in self.records:
            out[record["payload"]["verdict"]] += 1
        return out

    @property
    def verdict(self) -> str:
        return fold_verdicts(
            record["payload"]["verdict"] for record in self.records
        )


@dataclass
class CampaignOutcome:
    """Aggregate result of one campaign run."""

    spec: CampaignSpec
    sections: List[SectionOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for section in self.sections:
            for verdict, n in section.counts.items():
                out[verdict] += n
        return out

    @property
    def points(self) -> int:
        return sum(len(section.records) for section in self.sections)

    @property
    def verdict(self) -> str:
        return fold_verdicts(section.verdict for section in self.sections)

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 violation, 2 PARTIAL."""
        return EXIT_CODES[self.verdict]


def section_checkpoint(out: Optional[str], section: str) -> Optional[str]:
    """The per-section JSONL path for a campaign ``--out`` base."""
    return f"{out}.{section}.jsonl" if out else None


def run_spec(
    spec: CampaignSpec,
    *,
    workers: Optional[int] = None,
    out: Optional[str] = None,
    resume: bool = True,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> CampaignOutcome:
    """Run a campaign spec; see the module docstring.

    ``workers=None`` takes the spec's own default (``spec.workers``,
    itself 0 = one per CPU).  ``only`` restricts the run to the named
    sections, in spec order.  ``progress`` (if given) is called as
    ``progress(section_name, done, total)`` per completed point.
    """
    if only:
        known = {section.name for section in spec.sections}
        missing = [name for name in only if name not in known]
        if missing:
            raise SpecError(
                f"unknown section(s): {', '.join(missing)} "
                f"(spec has: {', '.join(sorted(known))})"
            )
    sections = [
        section for section in spec.sections
        if not only or section.name in only
    ]
    start = time.perf_counter()
    outcome = CampaignOutcome(spec=spec)
    for section in sections:

        def section_progress(done, total, record, _name=section.name):
            if progress is not None:
                progress(_name, done, total)

        outcome.sections.append(run_section(
            section,
            spec.root_seed,
            workers=spec.workers if workers is None else workers,
            checkpoint=section_checkpoint(out, section.name),
            resume=resume,
            progress=section_progress,
        ))
    outcome.elapsed = time.perf_counter() - start
    return outcome


def run_section(
    section: Section,
    root_seed: int = 0,
    *,
    workers: int = 0,
    checkpoint: Optional[str] = None,
    resume: bool = True,
    progress: Optional[Callable[[int, int, Dict[str, Any]], None]] = None,
) -> SectionOutcome:
    """Run one section's points through the engine into ``checkpoint``
    (``workers=0``: one per CPU; serial-only executors always use 1)."""
    from repro.engine.engine import run_tasks

    tasks = compile_section(section, root_seed)
    serial = executor_for(section.kind).serial_only
    try:
        report = run_tasks(
            campaign_point_task,
            tasks,
            workers=1 if serial else (workers or _cpu_count()),
            checkpoint=checkpoint,
            resume=resume,
            progress=progress,
        )
    except SpecError as exc:
        # An input error only a point's execution can see (a history
        # its spec cannot apply): name the point, as compile errors do.
        index = getattr(exc, "task_index", None)
        if index is None:
            raise
        raise SpecError(
            f"point {index} of section {section.name!r}: {exc}"
        ) from None
    return SectionOutcome(
        name=section.name,
        kind=section.kind,
        records=report.records,
        executed=report.executed,
        skipped=report.skipped,
        workers=report.workers,
        elapsed=report.elapsed,
        checkpoint=report.checkpoint,
    )


def _cpu_count() -> int:
    import os

    return os.cpu_count() or 1
