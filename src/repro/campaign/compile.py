"""Compilation: campaign points -> PR-1 engine tasks.

A section's crossed :class:`~repro.campaign.spec.CampaignPoint` list
maps one-to-one onto :class:`~repro.engine.engine.ExecutionTask`\\ s:
the point index is the task index, the point seed is the task seed,
and the task params carry ``kind`` plus the point's param dict, which
is exactly what :func:`repro.campaign.executors.campaign_point_task`
consumes in a worker process.  Because the task list is a pure
function of the spec, the engine's checkpoint contract applies
verbatim: a section's JSONL is byte-identical across worker counts
and resumable by index/seed/params match.

Validation happens here, before any work runs: every point is passed
through its executor's ``validate_point``, so a typo'd scenario name
in axis position 40 fails the whole campaign at compile time instead
of forty minutes in.
"""

from __future__ import annotations

import json
from typing import List

from repro.campaign.executors import executor_for
from repro.campaign.spec import CampaignSpec, Section, SpecError
from repro.engine.engine import ExecutionTask


def _json_safe(section: str, params: dict) -> dict:
    """Round-trip params through JSON so checkpoint resume comparisons
    (which see decoded JSON) match the in-memory task params exactly."""
    try:
        return json.loads(json.dumps(params))
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"section {section!r} has non-JSON-safe params: {exc}"
        ) from exc


def compile_section(
    section: Section, root_seed: int = 0
) -> List[ExecutionTask]:
    """Validate and compile one section into ordered engine tasks."""
    executor = executor_for(section.kind)
    points = section.points(root_seed)
    tasks: List[ExecutionTask] = []
    for point in points:
        params = _json_safe(section.name, point.params)
        try:
            executor.validate_point(params)
        except SpecError as exc:
            if len(points) == 1:
                raise
            raise SpecError(
                f"point {point.index} of section {section.name!r}: {exc}"
            ) from None
        tasks.append(ExecutionTask(
            point.index,
            point.seed,
            (("kind", section.kind), ("point", params)),
        ))
    if not tasks:
        raise SpecError(f"section {section.name!r} compiles to no points")
    return tasks


def compile_spec(spec: CampaignSpec) -> dict:
    """Compile every section; returns ``{section name: [tasks]}``."""
    if not spec.sections:
        raise SpecError("the spec has no sections")
    return {
        section.name: compile_section(section, spec.root_seed)
        for section in spec.sections
    }
