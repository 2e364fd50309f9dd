"""History visualisation.

``render_timeline`` draws operations as intervals over the global step
axis, which makes concurrency windows -- and therefore linearization
freedom -- visible at a glance:

    steps       0         1         2
                0123456789012345678901234567
    w0 write    [=====W====]
    r0 read        [==X=]
    a0 audit             [===A===]

``W``/``X``/``A`` mark the linearization-relevant primitive (successful
R CAS, fetch&xor, R read).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.history import History


def _marker_for(op, register_r_name: Optional[str]) -> Optional[int]:
    """Index of the linearization-relevant primitive, if identifiable."""
    if register_r_name is None:
        return None
    for event in op.primitives:
        if event.obj_name != register_r_name:
            continue
        if event.primitive == "fetch_xor":
            return event.index
        if event.primitive == "compare_and_swap" and event.result:
            return event.index
        if event.primitive == "read" and op.name == "audit":
            return event.index
    return None


def render_timeline(
    history: History,
    register: Any = None,
    width: int = 72,
) -> str:
    """ASCII chart of operation intervals over the step axis.

    ``register`` (optional) identifies the main register so that
    linearization-relevant primitives get markers (W = install,
    X = fetch&xor, A = audit's read).
    """
    ops = history.operations()
    if not ops:
        return "(empty history)"
    r_name = getattr(getattr(register, "R", None), "name", None)
    end_of_log = history.length
    scale = max(1.0, end_of_log / max(width, 1))

    def col(index: int) -> int:
        return min(int(index / scale), width - 1)

    label_width = max(
        len(f"{op.pid} {op.name}#{op.op_id}") for op in ops
    )
    lines = []
    axis = " " * (label_width + 2)
    ticks = ["·"] * width
    for step in range(0, end_of_log, max(1, int(10 * scale) // 10 * 10 or 10)):
        ticks[col(step)] = "|"
    lines.append(axis + "".join(ticks) + f"  (0..{end_of_log} steps)")
    for op in ops:
        start = col(op.invoke_index)
        end = col(
            op.response_index
            if op.response_index is not None
            else end_of_log - 1
        )
        row = [" "] * width
        for c in range(start, end + 1):
            row[c] = "="
        row[start] = "["
        row[end] = "]" if op.response_index is not None else ">"
        marker = _marker_for(op, r_name)
        if marker is not None:
            symbol = {
                "write": "W", "write_max": "W",
                "read": "X", "scan": "X",
                "audit": "A",
            }.get(op.name, "*")
            row[col(marker)] = symbol
        label = f"{op.pid} {op.name}#{op.op_id}".ljust(label_width)
        lines.append(f"{label}  {''.join(row)}")
    legend = (
        " " * (label_width + 2)
        + "[..] op interval, > pending, "
        + "W/X/A linearization step on R"
    )
    lines.append(legend)
    return "\n".join(lines)
