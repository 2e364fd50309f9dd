"""Stress/throughput harness: the paper's objects on real threads or
real processes.

``run_stress`` spins up N writer/reader/auditor workers against
Algorithm 1 (register), Algorithm 2 (max register), Algorithm 3
(snapshot) or the naive baseline, under an op-count budget and/or a
wall-clock duration, and reports ops/sec plus latency percentiles.
``runtime="thread"`` (default) uses one OS thread per worker;
``runtime="process"`` uses one OS process per worker with primitives
served by a memory-server process (:mod:`repro.rt.process_runtime`) —
true multi-core scaling past the GIL.  Either way, the recorded history
is the same :class:`~repro.sim.history.History` the simulator produces,
so it can be post-validated by the *same* oracles: the Wing-Gong
linearizability checker against the auditable sequential specs, and the
syntactic audit-exactness oracle.

The system builder and per-worker op sources are module-level (not
closures) so the process backend can ship them across the fork/spawn
boundary by name; the thread backend reuses the exact same pieces.

CLI entry point: ``python -m repro stress`` (see ``__main__``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro._seeding import stable_hash
from repro.analysis.audit_checks import strip_version, windowed_audit_oracle
from repro.analysis.fastlin import (
    DEFAULT_MAX_NODES,
    LIN_FAIL,
    LIN_OK,
    LIN_UNDECIDED,
    SeqSpec,
)
from repro.analysis.specs import (
    auditable_register_spec,
    stream_max_register_spec,
    stream_register_spec,
    stream_snapshot_spec,
)
from repro.analysis.streamlin import (
    DEFAULT_WINDOW,
    LIN_PARTIAL,
    StreamingLinChecker,
)
from repro.baselines.naive_auditable import NaiveAuditableRegister
from repro.core.auditable_max_register import AuditableMaxRegister
from repro.core.auditable_register import AuditableRegister
from repro.core.auditable_snapshot import AuditableSnapshot
from repro.crypto.nonce import NonceSource
from repro.crypto.pad import OneTimePadSequence
from repro.faults import FaultPlan, chaos_plan, parse_fault_families
from repro.rt.process_runtime import PidRef, ProcessRuntime
from repro.rt.thread_runtime import DEFAULT_WATCHDOG, ThreadRuntime
from repro.sim.event_log import JsonlEventSink
from repro.sim.history import Tap

STRESS_OBJECTS = ("register", "max", "snapshot", "naive")
STRESS_RUNTIMES = ("thread", "process")

#: The verdicts of :func:`recorded_verdict`.
PASS, FAIL, PARTIAL = "PASS", "FAIL", "PARTIAL"

#: How each linearizability status reads in a verdict report.
_LIN_LINES = {
    LIN_OK: "[PASS] history linearizable",
    LIN_FAIL: "[FAIL] history linearizable",
    LIN_UNDECIDED: "[UNDECIDED] linearizability search budget exhausted",
    LIN_PARTIAL: "[PARTIAL] stream cut before its end marker",
}


def recorded_verdict(
    lin_status: Optional[str], audit_ok: Optional[bool]
) -> str:
    """PASS, FAIL or PARTIAL for one recorded run, from its validator's
    linearizability status and audit verdict.

    A proven violation (a non-linearizable history or an inexact audit)
    is FAIL, even on a cut stream.  A decided linearizable history is
    PASS.  An exhausted search budget or a stream cut before its end
    marker is PARTIAL, never a false OK.  ``lin_status`` is ``None``
    for a run that was not validated: nothing was refuted, so PASS.
    """
    if lin_status == LIN_FAIL or audit_ok is False:
        return FAIL
    if lin_status in (LIN_OK, None):
        return PASS
    return PARTIAL


def verdict_lines(
    lin_status: str,
    audit_ok: Optional[bool],
    audit_note: str = "",
    budget: Optional[str] = None,
) -> List[str]:
    """The report lines of one validated run: each check, then the
    :func:`recorded_verdict`.  ``budget`` names the budget that cut an
    undecided search (:attr:`StreamVerdict.budget
    <repro.analysis.streamlin.StreamVerdict.budget>`)."""
    line = _LIN_LINES[lin_status]
    if budget is not None:
        line += f" ({budget})"
    lines = [f"  {line}"]
    if audit_ok is not None:
        audit = "PASS" if audit_ok else "FAIL"
        lines.append(f"  [{audit}] audit exactness{audit_note}")
    lines.append(
        f"  verdict       : {recorded_verdict(lin_status, audit_ok)}"
    )
    return lines


def audit_note(counts: Dict[str, Any]) -> str:
    """The audit-exactness line's suffix: audits checked, how many of
    them answered a non-empty set (a run whose audits all answered the
    empty set checks exactness on no pairs), and the oracle's resident
    pairs.  ``counts`` is a validator verdict payload."""
    return (
        f" ({counts.get('audits_checked', 0)} audits, "
        f"{counts.get('audits_nonempty', 0)} non-empty, "
        f"{counts.get('audit_resident_pairs', 0)} pairs resident)"
    )


def supported_fault_families(runtime: str) -> Tuple[str, ...]:
    """The fault families ``runtime`` can inject, in band order: the
    runtime class's ``fault_families``."""
    for cls in (ThreadRuntime, ProcessRuntime):
        if cls.kind == runtime:
            return cls.fault_families
    raise ValueError(
        f"unknown stress runtime {runtime!r} "
        f"(choose from {', '.join(STRESS_RUNTIMES)})"
    )


def check_stress_options(
    object_kind: str,
    runtime: str = "thread",
    threads: int = 8,
    readers: Optional[int] = None,
    writers: Optional[int] = None,
    auditors: Optional[int] = None,
    ops: Optional[int] = 25,
    duration: Optional[float] = None,
    faults: Optional[str] = None,
) -> Tuple[Tuple[int, int, int], Optional[Tuple[str, ...]]]:
    """Check one stress run's options, raising ``ValueError`` on the
    first bad one.  Returns the ``(readers, writers, auditors)`` the
    run spawns (the :func:`split_threads` split; a snapshot always has
    an updater) and the parsed ``faults`` family spec, if one is
    given."""
    if object_kind not in STRESS_OBJECTS:
        raise ValueError(
            f"unknown stress object {object_kind!r} "
            f"(choose from {', '.join(STRESS_OBJECTS)})"
        )
    allowed = supported_fault_families(runtime)
    if ops is None and duration is None:
        raise ValueError("need an op budget (ops=) or a duration")
    if ops is not None and ops < 1:
        raise ValueError(f"need at least one op per worker (got {ops})")
    if duration is not None and duration <= 0:
        raise ValueError(f"need a positive duration (got {duration})")
    r, w, a = split_threads(threads, readers, writers, auditors)
    if min(r, w, a) < 0:
        raise ValueError(
            f"role counts must be non-negative (got {r}/{w}/{a})"
        )
    if object_kind == "snapshot":
        # Updaters are the snapshot's components; there is always at
        # least one, and the report's role counts must match the
        # workers actually spawned.
        w = max(1, w)
    if r + w + a < 1:
        raise ValueError("no workers: all role counts are zero")
    if faults is None:
        return (r, w, a), None
    families = parse_fault_families(faults)
    unsupported = [fam for fam in families if fam not in allowed]
    if unsupported:
        raise ValueError(
            f"fault families {', '.join(unsupported)} require the "
            f"process runtime; the {runtime} runtime supports "
            f"{', '.join(allowed)}"
        )
    return (r, w, a), families


def split_threads(
    threads: int,
    readers: Optional[int] = None,
    writers: Optional[int] = None,
    auditors: Optional[int] = None,
) -> Tuple[int, int, int]:
    """Partition a thread budget into (readers, writers, auditors).

    Explicit role counts win (and then ``threads`` is ignored); the
    default split reserves one auditor once three threads are available
    and favours readers, the paper's contended role.
    """
    if readers is not None or writers is not None or auditors is not None:
        return (readers or 0, writers or 0, auditors or 0)
    if threads < 1:
        raise ValueError("need at least one thread")
    a = 1 if threads >= 3 else 0
    w = max(1, (threads - a) // 2)
    r = max(0, threads - a - w)
    return (r, w, a)


def percentile_summary(samples: List[float]) -> Dict[str, float]:
    """Nearest-rank latency percentiles, in microseconds.

    The nearest-rank definition: the p-th percentile of n ordered
    samples is the one at (1-based) rank ``ceil(p * n)``.  (An earlier
    round-half-up formula picked one sample too low whenever ``p * n``
    had a fractional part at most one half — e.g. the p90 of 7 samples.)
    """
    if not samples:
        return {}
    ordered = sorted(samples)
    n = len(ordered)

    def rank(p: float) -> float:
        return ordered[min(n, max(1, math.ceil(p * n))) - 1]

    return {
        "p50_us": round(rank(0.50) * 1e6, 1),
        "p90_us": round(rank(0.90) * 1e6, 1),
        "p99_us": round(rank(0.99) * 1e6, 1),
        "max_us": round(ordered[-1] * 1e6, 1),
    }


@dataclass
class StressReport:
    """Outcome of one stress run (thread or process runtime)."""

    object: str
    readers: int
    writers: int
    auditors: int
    seed: int
    ops_budget: Optional[int]
    duration: Optional[float]
    runtime: str = "thread"
    ops_completed: int = 0
    primitives: int = 0
    elapsed: float = 0.0
    ops_per_sec: float = 0.0
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    validated: bool = False
    lin_ok: Optional[bool] = None
    audit_ok: Optional[bool] = None
    # "ok"/"fail"/"undecided" when validated; an undecided verdict (a
    # linearizability search budget exhausted) leaves lin_ok None -- the
    # run is reported, just not vouched for.
    lin_status: Optional[str] = None
    # Online mode: events streamed (not buffered) into the incremental
    # checker.
    online: bool = False
    # Chaos mode: "crash,partition,dup@100/10k" when a family spec was
    # given, the plan class name for explicit FaultPlan instances.
    faults: Optional[str] = None
    # The validator's verdict payload: the budget that cut an undecided
    # search, the audit counters and the checker's progress counters.
    checks: Dict[str, Any] = field(default_factory=dict)

    @property
    def stream(self) -> Optional[Dict[str, Any]]:
        """The verdict payload an online run records (``None`` else)."""
        return self.checks if self.online and self.checks else None

    @property
    def threads(self) -> int:
        return self.readers + self.writers + self.auditors

    @property
    def ok(self) -> bool:
        """True when validation (if performed) found no violation."""
        return recorded_verdict(self.lin_status, self.audit_ok) != FAIL

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable record (one line of a stress JSONL log)."""
        return {
            "object": self.object,
            "runtime": self.runtime,
            "readers": self.readers,
            "writers": self.writers,
            "auditors": self.auditors,
            "seed": self.seed,
            "ops_budget": self.ops_budget,
            "duration": self.duration,
            "ops_completed": self.ops_completed,
            "primitives": self.primitives,
            "elapsed_s": round(self.elapsed, 4),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "latency": self.latency,
            "validated": self.validated,
            "lin_ok": self.lin_ok,
            "lin_status": self.lin_status,
            "audit_ok": self.audit_ok,
            "online": self.online,
            "stream": self.stream,
            "faults": self.faults,
        }

    def render(self) -> str:
        worker = "processes" if self.runtime == "process" else "threads"
        lines = [
            f"== stress: {self.object} on {self.threads} {worker} "
            f"({self.readers} readers / {self.writers} writers / "
            f"{self.auditors} auditors) ==",
            f"  ops completed : {self.ops_completed} "
            f"({self.primitives} primitives)",
            f"  elapsed       : {self.elapsed:.3f}s",
            f"  throughput    : {self.ops_per_sec:,.0f} ops/sec",
        ]
        if self.faults:
            lines.append(f"  faults        : {self.faults}")
        for op_name in sorted(self.latency):
            stats = self.latency[op_name]
            if not stats:
                continue
            lines.append(
                f"  latency {op_name:<7}: "
                f"p50={stats['p50_us']:>8.1f}us  "
                f"p90={stats['p90_us']:>8.1f}us  "
                f"p99={stats['p99_us']:>8.1f}us  "
                f"max={stats['max_us']:>8.1f}us"
            )
        if self.validated:
            lines += verdict_lines(
                self.lin_status, self.audit_ok,
                audit_note(self.checks) if self.checks else "",
                self.checks.get("budget"),
            )
        else:
            lines.append("  (history not post-validated)")
        if self.online and self.stream:
            lines.append(
                "  online        : "
                f"frontier={self.stream.get('frontier_index')}  "
                f"retired={self.stream.get('ops_retired')}  "
                f"peak resident={self.stream.get('peak_resident_ops')}  "
                f"windows={self.stream.get('windows')}"
            )
        return "\n".join(lines)


def _max_value(seed: int, writer: int, k: int) -> int:
    return stable_hash("stress-max-value", seed, writer, k) % 1_000_000


def build_stress_register(
    object_kind: str,
    r: int,
    w: int,
    seed: int,
    max_substrate: str = "atomic",
    snapshot_substrate: str = "afek",
) -> Any:
    """Build the shared object under stress, deterministically from args.

    Module-level and pure so the process runtime can use it as its
    ``build`` callable: the memory server and every worker construct an
    identical replica from the same arguments.
    """
    pad_width = max(1, r)
    pad = OneTimePadSequence(pad_width, seed=stable_hash("stress-pad", seed))
    nonces = NonceSource(seed=stable_hash("stress-nonce", seed))
    if object_kind == "register":
        return AuditableRegister(pad_width, initial="v0", pad=pad)
    if object_kind == "max":
        return AuditableMaxRegister(
            pad_width, initial=0, pad=pad, nonces=nonces,
            max_substrate=max_substrate,
        )
    if object_kind == "naive":
        return NaiveAuditableRegister(pad_width, initial="v0")
    if object_kind == "snapshot":
        # run_stress guarantees w >= 1 here: updaters ARE the
        # components, so the role counts in the report stay truthful.
        return AuditableSnapshot(
            components=w,
            num_scanners=pad_width,
            initial=0,
            pad=pad,
            nonces=nonces,
            snapshot_substrate=snapshot_substrate,
            max_substrate=max_substrate,
        )
    raise ValueError(
        f"unknown stress object {object_kind!r} "
        f"(choose from {', '.join(STRESS_OBJECTS)})"
    )


def _stress_pids(
    object_kind: str, r: int, w: int, a: int
) -> List[Tuple[str, str, int]]:
    """The (pid, role, index) roster of one stress run."""
    roster: List[Tuple[str, str, int]] = []
    if object_kind == "snapshot":
        roster += [(f"u{i}", "updater", i) for i in range(w)]
        roster += [(f"s{j}", "scanner", j) for j in range(r)]
    else:
        roster += [(f"r{j}", "reader", j) for j in range(r)]
        roster += [(f"w{i}", "writer", i) for i in range(w)]
    roster += [(f"a{idx}", "auditor", idx) for idx in range(a)]
    return roster


def stress_op_source(
    reg: Any,
    pid: str,
    object_kind: str,
    seed: int,
    role: str,
    index: int,
):
    """Nullary op source for one stress worker.

    Signature matches the process runtime's source-factory contract
    (``factory(system, pid, *args)``); the thread path calls it with the
    shared object directly.  Values replay from ``seed`` alone, so both
    backends (and every process-runtime replica) generate the same
    operation stream per pid.
    """
    ref = PidRef(pid)
    counter = count()
    if role == "reader":
        handle = reg.reader(ref, index)
        return lambda: handle.read_op()
    if role == "writer":
        handle = reg.writer(ref)
        if object_kind == "max":
            return lambda: handle.write_max_op(
                _max_value(seed, index, next(counter))
            )
        return lambda: handle.write_op(f"w{index}-{next(counter)}")
    if role == "updater":
        handle = reg.updater(ref, index)
        return lambda: handle.update_op(_max_value(seed, index, next(counter)))
    if role == "scanner":
        handle = reg.scanner(ref, index)
        return lambda: handle.scan_op()
    if role == "auditor":
        handle = reg.auditor(ref)
        return lambda: handle.audit_op()
    raise ValueError(f"unknown stress role {role!r}")


def stress_meta(
    object_kind: str,
    r: int,
    w: int,
    a: int,
    seed: int,
    max_substrate: str = "atomic",
    snapshot_substrate: str = "afek",
    window: int = DEFAULT_WINDOW,
) -> Dict[str, Any]:
    """The description of one stress run: its event log's ``hello``
    line, and all that :func:`_build` and :func:`validator_from_meta`
    need to rebuild the run's object, roster and validator."""
    return {
        "kind": "stress",
        "object": object_kind,
        "r": r,
        "w": w,
        "a": a,
        "seed": seed,
        "max_substrate": max_substrate,
        "snapshot_substrate": snapshot_substrate,
        "window": window,
    }


def _build(
    meta: Dict[str, Any],
    ops: Optional[int],
    runtime: str = "thread",
    faults: Optional[FaultPlan] = None,
    record_latency: bool = True,
    tap: Optional[Callable[[], Any]] = None,
    retain_history: bool = True,
    join_watchdog: Optional[float] = DEFAULT_WATCHDOG,
) -> Union[ThreadRuntime, ProcessRuntime]:
    """Construct the runtime, shared object and per-worker op sources
    of the run ``meta`` (a :func:`stress_meta`) describes.

    ``tap`` is a picklable zero-argument factory (e.g. a ``partial``
    of :class:`StressTap`) called where the history is recorded: here
    on the thread runtime, inside the memory server on the process
    runtime.  Either runtime closes the tap at a clean end and keeps
    what its ``close`` returned as ``verdict``.
    """
    object_kind, seed = meta["object"], meta["seed"]
    build_args = (
        object_kind, meta["r"], meta["w"], seed,
        meta["max_substrate"], meta["snapshot_substrate"],
    )
    roster = _stress_pids(object_kind, meta["r"], meta["w"], meta["a"])
    if runtime == "process":
        prt = ProcessRuntime(
            build_stress_register,
            build_args,
            faults=faults,
            record_latency=record_latency,
            tap=tap,
            retain_history=retain_history,
            join_watchdog=join_watchdog,
        )
        for pid, role, index in roster:
            prt.add_source_factory(
                pid,
                stress_op_source,
                args=(object_kind, seed, role, index),
                max_ops=ops,
            )
        return prt
    reg = build_stress_register(*build_args)
    trt = ThreadRuntime(
        record_latency=record_latency,
        join_watchdog=join_watchdog,
        faults=faults,
    )
    trt.history.stream_to(tap and tap(), retain=retain_history)
    for pid, role, index in roster:
        trt.add_op_source(
            pid,
            stress_op_source(reg, pid, object_kind, seed, role, index),
            max_ops=ops,
        )
    return trt


class StreamValidator(Tap):
    """One streaming pass producing every verdict of a run: a
    :class:`~repro.sim.history.Tap` over a list of oracles, each with
    ``reads``, ``feed``, ``count`` and ``verdict``.  The incremental
    :class:`~repro.analysis.streamlin.StreamingLinChecker` (``spec``)
    comes first and reads no object; the given ``oracles`` (``None``
    ones left out, e.g. the
    :class:`~repro.analysis.audit_checks.WindowedAuditOracle`, which
    reads ``R``) follow.  It works identically over a buffered history,
    a live runtime stream (``online=True``) or a replayed event log
    (``repro serve``).  :func:`validator_from_meta` builds it for a
    stress run; ``repro serve --spec`` builds the checker alone.
    """

    def __init__(
        self,
        spec: SeqSpec,
        *oracles: Any,
        max_nodes: int = DEFAULT_MAX_NODES,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        super().__init__([
            StreamingLinChecker(
                spec, window=window, max_nodes_per_window=max_nodes
            ),
            *oracles,
        ])

    def verdict(
        self, *, finished: bool = True
    ) -> Tuple[Optional[bool], Optional[bool], str, Dict[str, Any]]:
        """(lin_ok, audit_ok, lin_status, payload): every oracle's
        payload fields, in order.

        ``finished=False`` (a truncated stream) reports the PARTIAL
        verdict with the last verified frontier instead of pretending
        the history ended cleanly.  ``audit_ok`` folds the oracles
        after the checker, ``None`` when there are none.  An undecided
        or partial status leaves ``lin_ok`` ``None``: reported, not
        vouched for.
        """
        statuses, payload = [], {}
        for oracle in self.members:
            status, fields = oracle.verdict(finished)
            statuses.append(status)
            payload.update(fields)
        lin_status, *others = statuses
        audit = all(s == LIN_OK for s in others) if others else None
        lin = {LIN_OK: True, LIN_FAIL: False}.get(lin_status)
        return lin, audit, lin_status, payload


def validator_from_meta(
    meta: Dict[str, Any],
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    window: Optional[int] = None,
) -> StreamValidator:
    """The :class:`StreamValidator` of the stress run ``meta`` (a
    :func:`stress_meta`, e.g. a log's hello line) describes: its
    streaming spec, plus the windowed audit oracle where it
    applies.  ``window`` defaults to the meta's.  A roster with no
    auditor gets no oracle: it judges only audit responses, so it
    could find nothing, yet it would keep every (reader, value) pair.

    The object is rebuilt deterministically from the build arguments;
    replicas are build-arg stable, so the audit oracle's register name
    and decode hook match the producer's.
    """
    if meta.get("kind") != "stress":
        raise ValueError(
            "event log was not produced by the stress harness "
            "(no kind=stress in its hello line); use --spec to name "
            "a sequential specification instead"
        )
    object_kind = meta.get("object")
    if object_kind not in STRESS_OBJECTS:
        raise ValueError(f"unknown stress object in log: {object_kind!r}")
    r, w, a = (int(meta.get(role, 0)) for role in ("r", "w", "a"))
    reg = build_stress_register(
        object_kind, r, w, int(meta.get("seed", 0)),
        meta.get("max_substrate", "atomic"),
        meta.get("snapshot_substrate", "afek"),
    )
    if window is None:
        window = int(meta.get("window", DEFAULT_WINDOW))
    roster = _stress_pids(object_kind, r, w, a)

    def index_of(role: str) -> Dict[str, int]:
        return {pid: i for pid, kind, i in roster if kind == role}

    if object_kind == "snapshot":
        spec = stream_snapshot_spec(reg.components, 0, index_of("updater"))
        audit = windowed_audit_oracle(
            reg.M, lift=strip_version, window=window
        )
    elif object_kind == "naive":
        # The naive design has no fetch&xor, so the syntactic oracle
        # does not apply: audits are checked *inside* the sequential
        # spec (pair-carrying state), which is fine at the naive
        # baseline's bounded scales.
        spec, audit = auditable_register_spec("v0", index_of("reader")), None
    else:
        spec = (
            stream_max_register_spec(0) if object_kind == "max"
            else stream_register_spec("v0")
        )
        audit = windowed_audit_oracle(reg, window=window)
    return StreamValidator(
        spec, audit if a else None, max_nodes=max_nodes, window=window
    )


class StressTap(Tap):
    """What one stress run's history streams to: the JSONL event log at
    ``event_log`` (``meta`` is its hello line), and with ``validate``
    the run's :func:`validator_from_meta`.  :meth:`close` writes the
    log's end marker and returns the validator's verdict.  A
    ``partial`` of it is the tap factory :func:`_build` takes."""

    def __init__(
        self,
        meta: Dict[str, Any],
        event_log: Optional[str] = None,
        validate: bool = False,
        max_nodes: int = DEFAULT_MAX_NODES,
    ) -> None:
        self.sink = (
            None if event_log is None else JsonlEventSink(event_log, meta)
        )
        self.validator = (
            validator_from_meta(meta, max_nodes=max_nodes)
            if validate else None
        )
        super().__init__([self.sink, self.validator])

    def close(self) -> Any:
        if self.sink is not None:
            self.sink.close()
        return None if self.validator is None else self.validator.verdict()


def run_stress(
    object: str = "register",
    *,
    threads: int = 8,
    readers: Optional[int] = None,
    writers: Optional[int] = None,
    auditors: Optional[int] = None,
    ops: Optional[int] = 25,
    duration: Optional[float] = None,
    seed: int = 0,
    validate: Optional[bool] = None,
    max_substrate: str = "atomic",
    snapshot_substrate: str = "afek",
    lin_max_nodes: int = DEFAULT_MAX_NODES,
    runtime: str = "thread",
    faults: Optional[Union[FaultPlan, str]] = None,
    fault_rate: int = 100,
    online: bool = False,
    event_log: Optional[str] = None,
    stream_window: Optional[int] = None,
    record_latency: bool = True,
    join_watchdog: Optional[float] = DEFAULT_WATCHDOG,
) -> StressReport:
    """One stress run; see the module docstring.

    ``ops`` is the per-worker operation budget (``None`` = unbounded,
    requires ``duration``).  ``validate`` defaults to on for bounded
    budgets and for any online run, and off for buffered duration-only
    runs: every validated run feeds the same windowed streaming
    validator, but a buffered run first holds its whole history in
    memory, which an unbounded run can grow without limit (``online``
    validates without buffering).  ``lin_max_nodes`` bounds the
    linearizability search:
    exhausting it yields an UNDECIDED linearizability verdict
    (``lin_ok is None``), never a crash.  ``runtime`` selects the
    backend (``thread`` or ``process``); ``faults`` injects faults at
    the primitive-arrival seam: pass a
    :class:`~repro.faults.FaultPlan` directly, or a family
    spec string (``"crash,partition,dup"`` -- chaos mode), which
    builds a :func:`repro.faults.chaos_plan` at ``fault_rate`` total
    faults per 10k requests, seeded from ``seed`` and rostered with
    the run's worker pids (exact crash budget, recovery nominations).
    The process runtime supports every family; the thread runtime
    supports :func:`supported_fault_families` = crash and delay only
    (family specs are validated up front by
    :func:`check_stress_options`, with every other option; explicit
    plans simply have their message-level decisions ignored).

    ``online=True`` streams instead of buffering: history retention is
    disabled and every event feeds the incremental checker as it is
    recorded, so the history is never buffered and the checker's memory
    stays bounded by the in-flight window (the audit oracle still keeps
    every distinct pair read) — this is how duration-only runs get
    validated.  The validator is part of the run's :class:`StressTap`,
    built where the history is recorded: in-process on threads (under
    the history lock), inside the memory server on processes, which
    ships its verdict back at a clean end.  A worker or memory server
    that dies mid-run raises :class:`~repro.rt.base.RunAborted` naming
    it, so no verdict is given; reading a log cut before its end marker
    as PARTIAL is ``repro serve``'s rule.  ``event_log`` writes the
    run's JSONL event log, online or buffered, e.g. for ``repro serve``.
    ``stream_window`` sets the quiescence-window size (default
    :data:`~repro.analysis.streamlin.DEFAULT_WINDOW`);
    ``record_latency=False`` drops the O(n) per-op latency samples,
    recommended for multi-minute bounded-memory runs.
    ``join_watchdog`` bounds how long either runtime may go with no
    operation completed before the harness reports the workers still
    running as hung, in a :class:`~repro.rt.base.WatchdogTimeout`
    (default 60s); a long run that keeps completing operations is
    never cut.  Pass ``None`` for unbounded joins.
    """
    (r, w, a), families = check_stress_options(
        object, runtime, threads, readers, writers, auditors,
        ops, duration, faults if isinstance(faults, str) else None,
    )
    if validate is None:
        validate = ops is not None or online
    window = DEFAULT_WINDOW if stream_window is None else stream_window

    fault_desc: Optional[str] = None
    if families is not None:
        roster_pids = [pid for pid, _, _ in _stress_pids(object, r, w, a)]
        faults = chaos_plan(
            families, fault_rate, seed, pids=roster_pids
        )
        fault_desc = f"{','.join(families)}@{fault_rate}/10k"
    elif faults is not None:
        fault_desc = type(faults).__name__

    meta = stress_meta(
        object, r, w, a, seed, max_substrate, snapshot_substrate, window
    )
    # An online run validates in its tap, where the history is recorded;
    # a buffered one after the run.
    rt = _build(
        meta, ops,
        runtime=runtime, faults=faults, record_latency=record_latency,
        tap=partial(StressTap, meta, event_log,
                    validate=validate and online, max_nodes=lin_max_nodes),
        retain_history=not online,
        join_watchdog=join_watchdog,
    )

    history = rt.run(duration=duration)
    report = StressReport(
        object=object,
        readers=r,
        writers=w,
        auditors=a,
        seed=seed,
        ops_budget=ops,
        duration=duration,
        runtime=runtime,
        ops_completed=history.completed_count,
        primitives=rt.steps_taken,
        elapsed=rt.elapsed,
        online=online,
        faults=fault_desc,
    )
    report.ops_per_sec = (
        report.ops_completed / rt.elapsed if rt.elapsed else 0.0
    )
    by_op: Dict[str, List[float]] = {}
    for _pid, op_name, seconds in rt.latencies:
        by_op.setdefault(op_name, []).append(seconds)
    report.latency = {
        name: percentile_summary(samples)
        for name, samples in by_op.items()
    }
    if rt.latencies:
        report.latency["all"] = percentile_summary(
            [s for _, _, s in rt.latencies]
        )
    if validate:
        verdict = rt.verdict
        if not online:
            validator = validator_from_meta(meta, max_nodes=lin_max_nodes)
            for event in history.events:
                validator.feed(event)
            verdict = validator.verdict()
        report.validated = True
        report.lin_ok, report.audit_ok, report.lin_status, report.checks = (
            verdict
        )
    return report
