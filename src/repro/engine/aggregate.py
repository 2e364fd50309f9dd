"""Aggregating engine records into experiment rows and claims.

Engine runs produce one record per execution; experiment drivers and
the CLI need per-group tallies (violation counts per workload shape,
step-cost totals per grid point).  These helpers fold record payloads
into the row dicts that :func:`repro.harness.tables.render_table` and
:class:`repro.harness.experiment.ExperimentResult` consume, and fold
point verdicts (``PASS``/``FAIL``/``PARTIAL``) into the one verdict
and exit code every command reports.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence,
)

Record = Mapping[str, Any]


def aggregate_counts(
    records: Sequence[Record],
    key: Optional[Callable[[Record], Any]] = None,
    fields: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Group records and sum numeric payload fields within each group.

    ``key(record)`` names the group (one overall group when omitted).
    Boolean payload values count as 0/1, so per-execution flags like
    ``{"lin_fail": True}`` aggregate into violation totals.  Groups are
    returned in first-seen order with an ``executions`` count.
    """
    groups: Dict[Any, Dict[str, Any]] = {}
    order: List[Any] = []
    for record in records:
        group_key = key(record) if key is not None else None
        row = groups.get(group_key)
        if row is None:
            row = {"group": group_key, "executions": 0}
            groups[group_key] = row
            order.append(group_key)
        row["executions"] += 1
        payload = record.get("payload")
        if not isinstance(payload, Mapping):
            continue
        for name, value in payload.items():
            if fields is not None and name not in fields:
                continue
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                row[name] = row.get(name, 0) + value
    return [groups[group_key] for group_key in order]


def total(records: Sequence[Record], field: str) -> float:
    """Sum one payload field over all records (booleans count 0/1)."""
    result = 0
    for record in records:
        value = record.get("payload", {}).get(field, 0)
        result += int(value) if isinstance(value, bool) else value
    return result


#: The CLI exit-code contract: 0 clean, 1 violation, 2 inconclusive.
EXIT_CODES = {"PASS": 0, "FAIL": 1, "PARTIAL": 2}


def fold_verdicts(verdicts: Iterable[str]) -> str:
    """Fold point verdicts into one: a proven violation (FAIL) outranks
    an inconclusive point (PARTIAL), which outranks PASS."""
    seen = set(verdicts)
    if "FAIL" in seen:
        return "FAIL"
    return "PARTIAL" if "PARTIAL" in seen else "PASS"
