"""Per-layer self-time tracing for the benchmark's traced runs.

A traced job patches the public functions at each layer seam of the
pipeline *where they are looked up* (a module global such as
``repro.rt.serve.parse_line``, or a method on its defining class such
as ``BaseObject.apply``), runs the job, and restores every original.
Nothing under ``src/`` changes.

Accounting is per *timeline*: the benchmark's main thread, each worker
thread of the thread runtime, and -- on the process runtime -- the
memory server and each worker process.  A timeline keeps a stack of
open spans in memory; when a span closes, its duration minus the time
its child spans covered is added to its layer's self time.  The root's
uncovered time is ``unattributed``.  So, per timeline, the layer self
times plus ``unattributed`` add up to the timeline's wall time; the
traced job's total is the sum over its timelines (a thread waiting for
the interpreter lock still counts, inside the span it waits in).

Because that sum holds by construction, reconciliation also checks the
timelines against what the tracer does not produce: the workload's
expected set of timelines (a worker killed before it wrote its span
file, or a thread never rooted, is missing from both sides of the sum)
and each runtime's own ``elapsed`` clock.

Child processes inherit the patches through ``fork``; each writes its
timeline to a JSON file in ``spans_dir`` when its entry function
returns, and the parent collects the files once the runtime has joined
its children.

Spans are aggregated per layer as they close rather than kept one by
one: a ten-second traced run records millions of primitive-level spans,
and the table needs only their per-layer sums.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"

#: Reconciliation tolerance: layer rows plus ``unattributed`` must equal
#: the traced wall time within this share of it, plus RECONCILE_ABS_S.
#: The same tolerance applies to timelines against runtime clocks.
RECONCILE_REL = 0.01
RECONCILE_ABS_S = 0.001

#: How long the shared host may stall a process between a runtime
#: child's exit and the runtime reading its own clock: a fixed 35 ms
#: loop took up to 95 ms there (README, "Host noise").
HOST_STALL_S = 0.1

#: (module, attribute path, layer) for the plain span seams.  Methods are
#: patched on the class that defines them; functions in the namespace
#: of the module that calls them.
SPAN_SEAMS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.crypto.pad", "OneTimePadSequence.members", "crypto.pad"),
    ("repro.crypto.pad", "OneTimePadSequence.empty_cipher", "crypto.pad"),
    ("repro.memory.base", "BaseObject.apply", "memory.apply"),
    ("repro.sim.runner", "drive_to_suspension", "sim.drive"),
    ("repro.sim.runner", "Simulation._advance", "sim.runner"),
    ("repro.sim.event_log", "JsonlEventSink.__call__", "sim.event_log.encode"),
    ("repro.sim.event_log", "JsonlEventSink.close", "sim.event_log.encode"),
    ("repro.sim.event_log", "parse_line", "sim.event_log.decode"),
    ("repro.rt.serve", "parse_line", "sim.event_log.decode"),
    ("repro.sim.checkpoint", "SimulationCheckpointer.restore",
     "sim.checkpoint.restore"),
    ("repro.sim.checkpoint", "SimulationCheckpointer.capture",
     "sim.checkpoint.capture"),
    ("repro.rt.thread_runtime", "ThreadRuntime._run_op", "rt.thread.wait"),
    ("repro.analysis.streamlin", "StreamingLinChecker.feed", "streamlin.feed"),
    ("repro.analysis.audit_checks", "WindowedAuditOracle.feed",
     "audit_oracle.feed"),
    ("repro.analysis.fastlin", "FastLinChecker.check", "fastlin.check"),
    ("repro.mc.explorer", "explore", "mc.explore"),
    ("repro.mc.explorer", "configuration_fingerprint", "mc.fingerprint"),
    ("repro.mc.scenarios", "register_scenario_check", "mc.check"),
    ("repro.mc.scenarios", "max_scenario_check", "mc.check"),
    ("repro.fuzz.campaign", "run_one", "fuzz.run_one"),
    ("repro.engine.engine", "_write_checkpoint", "engine.checkpoint_write"),
    ("repro.rt.serve", "VerdictServer.feed_line", "serve.feed_line"),
)

#: (module, runtime class, layer, timeline kinds of its children): each
#: runtime's ``run`` is a span that also records the runtime's own
#: ``elapsed`` clock for reconciliation.
RUNTIME_SEAMS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.rt.thread_runtime", "ThreadRuntime", "rt.thread.run",
     ("thread",)),
    ("repro.rt.process_runtime", "ProcessRuntime", "rt.process.run",
     ("server", "worker")),
)

#: Every layer the table prints, in order; a row reads 0 where the
#: workload bypasses the layer.
LAYERS: Tuple[str, ...] = (
    "crypto.pad",
    "memory.apply",
    "sim.drive",
    "sim.runner",
    "sim.history.record",
    "sim.event_log.encode",
    "sim.event_log.decode",
    "sim.checkpoint.capture",
    "sim.checkpoint.restore",
    "rt.thread.wait",
    "rt.thread.run",
    "rt.process.run",
    "rt.process.round_trip",
    "rt.process.select",
    "rt.process.idle_wait",
    "faults.decide",
    "streamlin.feed",
    "audit_oracle.feed",
    "fastlin.check",
    "mc.explore",
    "mc.fingerprint",
    "mc.check",
    "fuzz.run_one",
    "engine.checkpoint_write",
    "serve.feed_line",
)

#: The per-layer metrics of a traced job: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.prims_per_read", "prims/op", "lower"),
    ("core.prims_per_write", "prims/op", "lower"),
    ("core.prims_per_audit", "prims/op", "lower"),
    ("core.silent_read_share", "ratio", "higher"),
    ("crypto.pad_s", "s", "lower"),
    ("memory.apply_calls", "count", "lower"),
    ("memory.apply_s", "s", "lower"),
    ("sim.drive_s", "s", "lower"),
    ("sim.history.record_s", "s", "lower"),
    ("sim.event_log.encode_s", "s", "lower"),
    ("sim.event_log.encode_bytes", "bytes", "lower"),
    ("sim.event_log.decode_s", "s", "lower"),
    ("sim.checkpoint.restore_s", "s", "lower"),
    ("rt.thread.wait_s", "s", "lower"),
    ("rt.process.round_trip_us", "us", "lower"),
    ("rt.process.idle_waits", "count", "lower"),
    ("rt.process.idle_wait_s", "s", "lower"),
    ("faults.decide_calls", "count", "lower"),
    ("faults.decisions", "count", "lower"),
    ("faults.decide_s", "s", "lower"),
    ("streamlin.feed_s", "s", "lower"),
    ("streamlin.peak_resident_ops", "ops", "lower"),
    ("streamlin.windows", "count", "lower"),
    ("streamlin.undecided_windows", "count", "lower"),
    ("audit_oracle.feed_s", "s", "lower"),
    ("audit_oracle.audits_checked", "count", "higher"),
    ("audit_oracle.us_per_audit_growth", "ratio", "lower"),
    ("fastlin.check_calls", "count", "lower"),
    ("fastlin.check_s", "s", "lower"),
    ("mc.executions", "count", "lower"),
    ("mc.distinct_states", "count", "lower"),
    ("mc.sleep_pruned", "count", "higher"),
    ("mc.fingerprint_hits", "count", "higher"),
    ("mc.restores", "count", "lower"),
    ("fuzz.steps", "count", "lower"),
    ("fuzz.run_one_s", "s", "lower"),
    ("engine.checkpoint_write_s", "s", "lower"),
    ("serve.feed_line_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    """(owner, attribute name) for a dotted ``path`` inside ``module``."""
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Timeline:
    """Span accounting of one thread of execution."""

    __slots__ = (
        "kind", "stack", "self_s", "calls", "counts", "samples",
        "duration", "unattributed",
    )

    def __init__(self, kind: str) -> None:
        self.kind = kind
        # Child time accumulated by each open span; [0] is the root's.
        self.stack: List[float] = [0.0]
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}
        self.duration = 0.0
        self.unattributed = 0.0

    def close(self, duration: float) -> None:
        self.duration = duration
        self.unattributed = duration - self.stack[0]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
            "samples": self.samples,
            "duration": self.duration,
            "unattributed": self.unattributed,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Timeline":
        timeline = cls(payload["kind"])
        timeline.self_s = payload["self_s"]
        timeline.calls = payload["calls"]
        timeline.counts = payload["counts"]
        timeline.samples = payload["samples"]
        timeline.duration = payload["duration"]
        timeline.unattributed = payload["unattributed"]
        return timeline


#: One runtime ``run`` seen from the main thread: (timeline kinds of its
#: children, the runtime's own ``elapsed``, the span's duration).
Run = Tuple[Tuple[str, ...], float, float]


class Tracer:
    """Installs the seam wrappers and collects the timelines they feed."""

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir
        self.local = threading.local()
        self.lock = threading.Lock()
        self.timelines: List[Timeline] = []
        self.runs: List[Run] = []
        #: Span time recorded on a thread that has no timeline; any of it
        #: fails reconciliation.
        self.orphan_s = 0.0
        self.role = "main"
        # (id(history), pid, op_id) -> primitives recorded so far, for
        # histories that keep no records.  Every history serializes its
        # own recording calls, so no lock.
        self.open_ops: Dict[Tuple[int, str, int], int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- timelines ---------------------------------------------------------

    def begin(self, kind: str) -> Timeline:
        timeline = Timeline(kind)
        self.local.tl = timeline
        return timeline

    def end(self, timeline: Timeline, duration: float) -> None:
        timeline.close(duration)
        self.local.tl = None
        with self.lock:
            self.timelines.append(timeline)

    def take(self) -> Tuple[List[Timeline], List[Run]]:
        """This process's closed timelines plus every child's span file,
        and the runtime runs seen since the last call."""
        with self.lock:
            timelines, self.timelines = self.timelines, []
            runs, self.runs = self.runs, []
        for path in sorted(glob.glob(os.path.join(self.spans_dir, "*.json"))):
            with open(path, "r", encoding="utf-8") as handle:
                timelines.append(Timeline.from_payload(json.load(handle)))
            os.unlink(path)
        return timelines, runs

    # -- wrappers ----------------------------------------------------------

    def span(
        self,
        layer: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[Timeline, tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as one span of ``layer``; ``after(timeline, args,
        result)`` runs inside the span when ``fn`` returns normally."""
        local = self.local
        perf = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tl = getattr(local, "tl", None)
            if tl is None:
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    with tracer.lock:
                        tracer.orphan_s += perf() - start
            stack = tl.stack
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tl, args, result)
                return result
            finally:
                spent = perf() - start
                child = stack.pop()
                stack[-1] += spent
                tl.self_s[layer] = tl.self_s.get(layer, 0.0) + spent - child
                tl.calls[layer] = tl.calls.get(layer, 0) + 1

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def root(self, kind: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as the root span of a new timeline (a worker thread)."""
        tracer = self

        def rooted(*args: Any, **kwargs: Any) -> Any:
            timeline = tracer.begin(kind)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(timeline, time.perf_counter() - start)

        return rooted

    def child_root(self, role: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as the entry of a forked child: drop the state inherited
        from the parent, trace, and leave the timeline in ``spans_dir``."""
        tracer = self

        def rooted(*args: Any, **kwargs: Any) -> Any:
            tracer.role = role
            tracer.timelines = []
            tracer.runs = []
            tracer.open_ops.clear()
            timeline = tracer.begin(role)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timeline.close(time.perf_counter() - start)
                path = os.path.join(
                    tracer.spans_dir, f"{role}-{os.getpid()}.json"
                )
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(timeline.to_payload(), handle)

        return rooted

    # -- installation ------------------------------------------------------

    def _patch(self, module: str, path: str, make: Callable[[Any], Any]) -> None:
        owner, name = _resolve(module, path)
        original = (
            owner.__dict__[name] if isinstance(owner, type)
            else getattr(owner, name)
        )
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        os.makedirs(self.spans_dir, exist_ok=True)
        for module, path, layer in SPAN_SEAMS:
            self._patch(module, path, lambda fn, layer=layer: self.span(layer, fn))
        self._install_history()
        self._install_runtimes()
        self._install_faults()
        self._patch(
            "repro.analysis.audit_checks", "WindowedAuditOracle._check_audit",
            self._sampled("audit_oracle.check_s"),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _sampled(self, key: str) -> Callable[[Any], Any]:
        """Record each call's duration as a sample, without a span: the
        time stays in the enclosing span's self time."""
        local = self.local
        perf = time.perf_counter

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def sampled(*args: Any, **kwargs: Any) -> Any:
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tl = getattr(local, "tl", None)
                    if tl is not None:
                        tl.samples.setdefault(key, []).append(perf() - start)

            return sampled

        return make

    def _install_history(self) -> None:
        """History recording spans, plus the per-operation primitive
        counts behind the ``core.*`` metrics.

        A history that keeps its records is the authority on an
        operation's primitives: a checkpoint restore (``mc.explore``)
        truncates them in place, so the count is read from the record at
        the response.  A history that streams without keeping records
        (``retain=False``: the online stress paths) is never restored,
        and its primitives are counted here as they are recorded.
        """
        open_ops = self.open_ops

        def on_invoke(tl: Timeline, args: tuple, result: Any) -> None:
            if not args[0]._retain:
                open_ops[(id(args[0]), args[1], args[2])] = 0

        def on_primitive(tl: Timeline, args: tuple, result: Any) -> None:
            if not args[0]._retain:
                key = (id(args[0]), args[1], args[2])
                open_ops[key] = open_ops.get(key, 0) + 1

        def on_response(tl: Timeline, args: tuple, result: Any) -> None:
            history, pid, op_id, name = args[:4]
            if history._retain:
                prims = len(history._ops[(pid, op_id)].primitives)
            else:
                prims = open_ops.pop((id(history), pid, op_id), 0)
            tl.count("ops." + name)
            tl.count("prims." + name, prims)
            if name == "read" and prims == 1:
                tl.count("silent.read")

        layer = "sim.history.record"
        for method, after in (
            ("record_invocation", on_invoke),
            ("record_primitive", on_primitive),
            ("record_response", on_response),
            ("record_crash", None),
        ):
            self._patch(
                "repro.sim.history", f"History.{method}",
                lambda fn, after=after: self.span(layer, fn, after),
            )

    def _install_runtimes(self) -> None:
        tracer = self

        def make_run(layer: str, kinds: Tuple[str, ...]):
            def make(fn: Callable[..., Any]) -> Callable[..., Any]:
                spanned = tracer.span(layer, fn)

                def run(rt: Any, *args: Any, **kwargs: Any) -> Any:
                    start = time.perf_counter()
                    try:
                        return spanned(rt, *args, **kwargs)
                    finally:
                        span_s = time.perf_counter() - start
                        with tracer.lock:
                            tracer.runs.append((kinds, rt.elapsed, span_s))

                return run

            return make

        for module, cls, layer, kinds in RUNTIME_SEAMS:
            self._patch(module, f"{cls}.run", make_run(layer, kinds))
        self._patch(
            "repro.rt.thread_runtime", "ThreadRuntime._drive",
            lambda fn: self.root("thread", fn),
        )
        self._patch(
            "repro.rt.process_runtime", "_server_main",
            lambda fn: self.child_root("server", fn),
        )
        self._patch(
            "repro.rt.process_runtime", "_worker_main",
            lambda fn: self.child_root("worker", fn),
        )

        def make_drive_op(fn: Callable[..., Any]) -> Callable[..., Any]:
            # Worker side: time the primitive round trip around the
            # ``apply`` callable the worker hands to drive_op.
            def drive_op(pid: str, op: Any, apply: Callable[..., Any]) -> Any:
                return fn(pid, op, tracer.span("rt.process.round_trip", apply))

            return drive_op

        self._patch("repro.rt.process_runtime", "drive_op", make_drive_op)

        def make_conn_wait(fn: Callable[..., Any]) -> Callable[..., Any]:
            local = tracer.local
            perf = time.perf_counter

            def conn_wait(*args: Any, **kwargs: Any) -> Any:
                # Only the memory server's select loop is a layer; the
                # parent's wait for its children stays in rt.process.run.
                if tracer.role != "server":
                    return fn(*args, **kwargs)
                tl = local.tl
                start = perf()
                ready = fn(*args, **kwargs)
                spent = perf() - start
                # An empty return is the server idling out its timeout.
                layer = "rt.process.select" if ready else "rt.process.idle_wait"
                tl.stack[-1] += spent
                tl.self_s[layer] = tl.self_s.get(layer, 0.0) + spent
                tl.calls[layer] = tl.calls.get(layer, 0) + 1
                if not ready:
                    tl.count("rt.process.idle_waits")
                return ready

            return conn_wait

        self._patch("repro.rt.process_runtime", "conn_wait", make_conn_wait)

    def _install_faults(self) -> None:
        def on_decide(tl: Timeline, args: tuple, result: Any) -> None:
            if result is not None:
                tl.count("faults.decisions")

        for plan in ("SeededFaultPlan", "ScriptedFaultPlan"):
            self._patch(
                "repro.faults", f"{plan}.decide",
                lambda fn: self.span("faults.decide", fn, on_decide),
            )


# -- one traced job ---------------------------------------------------------


class Profile:
    """The merged timelines of one traced job.

    ``runs`` are the runtime runs the main thread saw; ``expected``
    counts the timelines the job must have, by kind (for example one
    ``main`` and two ``thread``).
    """

    def __init__(
        self,
        timelines: List[Timeline],
        wall_s: float,
        orphan_s: float,
        runs: List[Run],
        expected: Dict[str, int],
    ) -> None:
        self.timelines = timelines
        self.wall_s = wall_s
        self.orphan_s = orphan_s
        self.runs = runs
        self.expected = expected
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}
        self.unattributed = 0.0
        for timeline in timelines:
            for layer, spent in timeline.self_s.items():
                self.self_s[layer] = self.self_s.get(layer, 0.0) + spent
            for layer, n in timeline.calls.items():
                self.calls[layer] = self.calls.get(layer, 0) + n
            for key, n in timeline.counts.items():
                self.counts[key] = self.counts.get(key, 0) + n
            for key, values in timeline.samples.items():
                self.samples.setdefault(key, []).extend(values)
            self.unattributed += timeline.unattributed

    def traced_total(self) -> float:
        """Wall time of every timeline, the main one measured outside
        the tracer by the job's own clock."""
        return self.wall_s + sum(
            timeline.duration for timeline in self.timelines
            if timeline.kind != "main"
        )

    def rows_total(self) -> float:
        return sum(self.self_s.values()) + self.unattributed + self.orphan_s

    def _runtime_problems(self) -> List[str]:
        """Each runtime's child timelines against the runtime's clocks.

        A child lives inside the ``run`` call that started it, so no
        child timeline is longer than that call.  The runtime's own
        ``elapsed`` runs from the release of its start barrier to the
        exit of its last child, and every child starts before the
        barrier opens, so the longest child timeline reaches
        ``elapsed`` but for a host stall.  A child that finishes its
        operations early ends before ``elapsed`` does, so shorter ones
        are not an error.
        """
        problems = []
        for kinds, elapsed, span_s in self.runs:
            tolerance = RECONCILE_REL * span_s + RECONCILE_ABS_S
            longest = max(
                (t.duration for t in self.timelines if t.kind in kinds),
                default=0.0,
            )
            name = "/".join(kinds)
            if longest < elapsed - tolerance - HOST_STALL_S:
                problems.append(
                    f"longest {name} timeline {longest:.6f}s < runtime "
                    f"elapsed {elapsed:.6f}s"
                )
            if longest > span_s + tolerance:
                problems.append(
                    f"{name} timeline {longest:.6f}s outlasts its run "
                    f"{span_s:.6f}s"
                )
        return problems

    def reconcile(self) -> Tuple[bool, str]:
        """Rows plus ``unattributed`` against the traced wall time, and
        the timelines against clocks the tracer does not keep."""
        traced = self.traced_total()
        rows = self.rows_total()
        tolerance = RECONCILE_REL * traced + RECONCILE_ABS_S
        problems = []
        if abs(rows - traced) > tolerance:
            problems.append("rows do not add up")
        negative = [
            layer for layer, spent in self.self_s.items()
            if spent < -RECONCILE_ABS_S
        ]
        if negative:
            problems.append(f"negative={negative}")
        if self.orphan_s:
            problems.append(f"orphan={self.orphan_s:.6f}s")
        kinds = dict(Counter(timeline.kind for timeline in self.timelines))
        if kinds != self.expected:
            problems.append(f"timelines {kinds} != expected {self.expected}")
        problems += self._runtime_problems()
        detail = (
            f"rows+unattributed={rows:.6f}s traced={traced:.6f}s "
            f"delta={rows - traced:+.6f}s tolerance={tolerance:.6f}s"
        )
        if problems:
            detail += " " + "; ".join(problems)
        return not problems, detail

    def timeline_summary(self) -> str:
        groups: Dict[str, List[float]] = {}
        for timeline in self.timelines:
            duration = (
                self.wall_s if timeline.kind == "main" else timeline.duration
            )
            groups.setdefault(timeline.kind, []).append(duration)
        return ", ".join(
            f"{kind} {len(values)} x {sum(values) / len(values):.3f}s"
            for kind, values in groups.items()
        )

    def table(self) -> List[str]:
        traced = self.traced_total()
        lines = [f"  {'layer':<26}{'self_s':>12}{'share':>9}{'calls':>11}"]
        for layer in LAYERS + (UNATTRIBUTED,):
            spent = (
                self.unattributed if layer == UNATTRIBUTED
                else self.self_s.get(layer, 0.0)
            )
            share = spent / traced if traced else 0.0
            calls = self.calls.get(layer, 0)
            lines.append(
                f"  {layer:<26}{spent:>12.6f}{share:>8.1%}{calls:>11}"
            )
        lines.append(f"  {'total':<26}{self.rows_total():>12.6f}")
        return lines

    def metrics(self, extras: Dict[str, Any], overhead_s: float) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric of this job.

        ``extras`` carries what the job's own reports count exactly:
        streamlin progress, audits checked, model-checking and fuzzing
        counts, event-log bytes.
        """
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        counts = self.counts
        self_s = self.self_s
        audits = self.samples.get("audit_oracle.check_s", [])
        decile = len(audits) // 10
        growth = 0.0
        if decile:
            growth = ratio(
                sum(audits[-decile:]) / decile, sum(audits[:decile]) / decile
            )
        trips = self.calls.get("rt.process.round_trip", 0)
        values = {
            "core.prims_per_read": ratio(
                counts.get("prims.read", 0), counts.get("ops.read", 0)
            ),
            "core.prims_per_write": ratio(
                counts.get("prims.write", 0), counts.get("ops.write", 0)
            ),
            "core.prims_per_audit": ratio(
                counts.get("prims.audit", 0), counts.get("ops.audit", 0)
            ),
            "core.silent_read_share": ratio(
                counts.get("silent.read", 0), counts.get("ops.read", 0)
            ),
            "crypto.pad_s": self_s.get("crypto.pad", 0.0),
            "memory.apply_calls": self.calls.get("memory.apply", 0),
            "memory.apply_s": self_s.get("memory.apply", 0.0),
            "sim.drive_s": self_s.get("sim.drive", 0.0),
            "sim.history.record_s": self_s.get("sim.history.record", 0.0),
            "sim.event_log.encode_s": self_s.get("sim.event_log.encode", 0.0),
            "sim.event_log.encode_bytes": extras.get("encode_bytes", 0),
            "sim.event_log.decode_s": self_s.get("sim.event_log.decode", 0.0),
            "sim.checkpoint.restore_s": self_s.get(
                "sim.checkpoint.restore", 0.0
            ),
            "rt.thread.wait_s": self_s.get("rt.thread.wait", 0.0),
            "rt.process.round_trip_us": ratio(
                self_s.get("rt.process.round_trip", 0.0) * 1e6, trips
            ),
            "rt.process.idle_waits": counts.get("rt.process.idle_waits", 0),
            "rt.process.idle_wait_s": self_s.get("rt.process.idle_wait", 0.0),
            "faults.decide_calls": self.calls.get("faults.decide", 0),
            "faults.decisions": counts.get("faults.decisions", 0),
            "faults.decide_s": self_s.get("faults.decide", 0.0),
            "streamlin.feed_s": self_s.get("streamlin.feed", 0.0),
            "streamlin.peak_resident_ops": extras.get("peak_resident_ops", 0),
            "streamlin.windows": extras.get("windows", 0),
            "streamlin.undecided_windows": extras.get("undecided_windows", 0),
            "audit_oracle.feed_s": self_s.get("audit_oracle.feed", 0.0),
            "audit_oracle.audits_checked": extras.get("audits_checked", 0),
            "audit_oracle.us_per_audit_growth": growth,
            "fastlin.check_calls": self.calls.get("fastlin.check", 0),
            "fastlin.check_s": self_s.get("fastlin.check", 0.0),
            "mc.executions": extras.get("executions", 0),
            "mc.distinct_states": extras.get("distinct_states", 0),
            "mc.sleep_pruned": extras.get("sleep_pruned", 0),
            "mc.fingerprint_hits": extras.get("fingerprint_hits", 0),
            "mc.restores": extras.get("restores", 0),
            "fuzz.steps": extras.get("fuzz_steps", 0),
            "fuzz.run_one_s": self_s.get("fuzz.run_one", 0.0),
            "engine.checkpoint_write_s": self_s.get(
                "engine.checkpoint_write", 0.0
            ),
            "serve.feed_line_s": self_s.get("serve.feed_line", 0.0),
            "trace.unattributed_s": self.unattributed,
            "trace.overhead_s": overhead_s,
        }
        return {name: values[name] for name, _, _ in PER_LAYER}
