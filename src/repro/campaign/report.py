"""Campaign reporting: per-section and per-axis-slice verdict tables.

The aggregate report answers the question an overnight campaign is run
to answer: *which slice of the design matrix failed?*  Beyond the
per-section totals, :func:`axis_slices` folds point verdicts along
every axis of every section -- one row per ``(section, axis, value)``
-- so a FAIL concentrated in ``runtime=process`` or
``fault_rate=200`` is visible at a glance without grepping JSONL.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.campaign.run import VERDICTS, CampaignOutcome
from repro.campaign.spec import Axis, CampaignSpec


def _section_axes(spec: CampaignSpec, name: str) -> List[Axis]:
    for section in spec.sections:
        if section.name == name:
            return section.axes
    return []


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _slice_label(value: Any, position: int) -> Any:
    """A scalar labels itself; a list or table shows its canonical JSON,
    or its axis position when that is too long to read (a history)."""
    if not isinstance(value, (list, tuple, dict)):
        return value
    text = _canonical(value)
    return text if len(text) <= 40 else f"#{position}"


def axis_slices(outcome: CampaignOutcome) -> List[Dict[str, Any]]:
    """Verdict counts folded along each declared axis value, keyed on
    the value's canonical JSON (so list- and table-valued axes fold)."""
    rows: List[Dict[str, Any]] = []
    for section in outcome.sections:
        for axis in _section_axes(outcome.spec, section.name):
            slices: Dict[str, Any] = {}
            for position, value in enumerate(axis.values):
                slices.setdefault(_canonical(value), (
                    _slice_label(value, position),
                    {v: 0 for v in VERDICTS},
                ))
            for record in section.records:
                point = record["params"]["point"]
                _, counts = slices[_canonical(point[axis.name])]
                counts[record["payload"]["verdict"]] += 1
            for label, counts in slices.values():
                rows.append({
                    "slice": f"{section.name}/{axis.name}={label}",
                    "points": sum(counts.values()),
                    **{v.lower(): counts[v] for v in VERDICTS},
                })
    return rows


def section_rows(outcome: CampaignOutcome) -> List[Dict[str, Any]]:
    rows = []
    for section in outcome.sections:
        counts = section.counts
        rows.append({
            "section": section.name,
            "kind": section.kind,
            "points": len(section.records),
            "run": section.executed,
            "resumed": section.skipped,
            **{v.lower(): counts[v] for v in VERDICTS},
            "verdict": section.verdict,
        })
    return rows


def render_outcome(outcome: CampaignOutcome) -> str:
    """The human-readable campaign report (tables + one-line verdict)."""
    from repro.harness.tables import render_table

    parts = [render_table(section_rows(outcome))]
    slices = axis_slices(outcome)
    if slices:
        parts.append("")
        parts.append(render_table(slices))
    counts = outcome.counts
    parts.append("")
    parts.append(
        f"  [{outcome.verdict}] campaign {outcome.spec.name!r}: "
        f"{outcome.points} points across {len(outcome.sections)} "
        f"section(s) in {outcome.elapsed:.2f}s -- {counts['PASS']} pass, "
        f"{counts['FAIL']} fail, {counts['PARTIAL']} partial"
    )
    return "\n".join(parts)

