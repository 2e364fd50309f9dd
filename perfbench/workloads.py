"""The benchmark's four workloads.

Each workload is a closed loop of fixed-size *jobs*: one job runs a
fixed amount of work through a public entry point of the pipeline and
ends in a verdict, and the next job starts only after that verdict.
Job ``k`` of a run takes the seed ``job_seed(seed, k)``, so a run's
inputs are a pure function of ``--seed``.

- ``stress-thread``: ``run_stress`` on the thread runtime, online.
- ``stress-process-chaos``: ``run_stress`` on the process runtime,
  online, with delay and partition faults.
- ``serve-audit``: ``VerdictServer``/``serve_file`` replaying an event
  log generated from the seed on the simulator during set-up.
- ``explore``: ``mc.explore`` over fixed scenarios, then a
  ``fuzz.run_campaign``.

A job whose verdict is not the expected one counts all its units
(operations, events, executions and schedules) as failed.  Each
workload fixes its units per job in advance, so a job that raises
fails as many units as one that ends with the wrong verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

# The expected model-checking counts, identical for every seed: the
# E13 suite plus Algorithm 1 with 2 readers and 1 writer.
# name -> (executions, distinct_states); every scenario is clean.
EXPECTED_EXPLORE = {
    "alg1-w1-r1": (16, 102),
    "alg1-w1-a1": (9, 51),
    "alg1-w2": (44, 198),
    "alg1-r2-prewrite": (12, 46),
    "alg1-r1-a1-prewrite": (7, 40),
    "alg1-silent-read": (5, 39),
    "alg2-w1-r1": (16, 126),
    "alg2-w2": (354, 1716),
    "alg1-r2-w1": (1092, 6587),
}


#: Units of the workload-specific figures in ``JobResult.detail``.
DETAIL_UNITS = {
    "prims_per_op": "prims/op",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "events": "count",
    "schedules_per_s": "schedules/s",
    "executions": "count",
    "fuzz_steps": "count",
}


def job_seed(seed: int, k: int) -> int:
    return seed * 10_000 + k


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class JobResult:
    """One job: its units, its verdict and what it measured."""

    units: int
    ok: bool
    wall_s: float
    #: The headline rate is rate_units / rate_s: ops or events over the
    #: job's wall time, or states over the model-checking phase.
    rate_units: float
    rate_s: float
    reason: str = ""
    #: Workload-specific end-to-end figures, printed by name.
    detail: Dict[str, float] = field(default_factory=dict)
    #: Exact counts from the job's own reports, for the per-layer table.
    extras: Dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    #: Unit of the headline rate.
    rate_name = ""
    rate_unit = ""
    #: Jobs a run makes at least, whatever --seconds says.
    min_jobs = 3
    #: The timelines a traced job leaves, by kind.
    timelines: Dict[str, int] = {"main": 1}
    #: The units one job attempts.
    units_per_job = 0

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, out: str) -> Dict[str, Any]:
        """Set-up in a fresh interpreter: import the entry points and
        build the inputs.  Returns a JSON-safe digest of the inputs,
        which must be equal on every repetition."""
        raise NotImplementedError

    def prepare(self, setup_out: str) -> None:
        """Adopt the set-up's output in the measuring process."""

    def job(self, k: int) -> JobResult:
        raise NotImplementedError


# -- stress ------------------------------------------------------------------


class _Stress(Workload):
    runtime = ""
    ops_per_worker = 0
    faults: Optional[str] = None
    fault_rate = 0
    rate_name = "ops_per_s"
    rate_unit = "ops/s"

    @property
    def units_per_job(self) -> int:
        return 2 * self.ops_per_worker

    def params(self) -> Dict[str, Any]:
        return {
            "entry": "repro.rt.stress.run_stress",
            "object": "register",
            "runtime": self.runtime,
            "readers": 1,
            "writers": 1,
            "auditors": 0,
            "ops_per_worker": self.ops_per_worker,
            "online": True,
            "faults": self.faults,
            "fault_rate_per_10k": self.fault_rate if self.faults else None,
        }

    def setup(self, out: str) -> Dict[str, Any]:
        from repro.rt.stress import build_stress_register

        reg = build_stress_register("register", 1, 1, self.seed)
        return {"object": type(reg).__name__, "readers": reg.num_readers}

    def _run(self, seed: int, event_log: Optional[str]):
        from repro.rt.stress import run_stress

        return run_stress(
            "register",
            threads=2,
            ops=self.ops_per_worker,
            seed=seed,
            online=True,
            runtime=self.runtime,
            faults=self.faults,
            fault_rate=self.fault_rate,
            event_log=event_log,
        )

    def job(self, k: int) -> JobResult:
        event_log = None
        if self.runtime == "process":
            # An explicit path keeps the server's log inside the work
            # directory (the default is a temporary file).
            event_log = os.path.join(self.work, f"events-{k}.jsonl")
        start = time.perf_counter()
        report = self._run(job_seed(self.seed, k), event_log)
        wall = time.perf_counter() - start
        expected = self.units_per_job
        reasons = []
        if report.lin_status != "ok":
            reasons.append(f"lin_status={report.lin_status}")
        if report.audit_ok is False:
            reasons.append("audit violation")
        if report.ops_completed != expected:
            reasons.append(f"completed {report.ops_completed}/{expected} ops")
        extras: Dict[str, Any] = dict(report.stream or {})
        if event_log is not None:
            extras["encode_bytes"] = os.path.getsize(event_log)
            os.unlink(event_log)
        detail = {
            "prims_per_op": report.primitives / max(1, report.ops_completed),
        }
        for op in ("read", "write"):
            stats = report.latency.get(op) or {}
            for pct in ("p50", "p99"):
                detail[f"{op}_{pct}_us"] = stats.get(f"{pct}_us", 0.0)
        return JobResult(
            units=expected,
            ok=not reasons,
            wall_s=wall,
            rate_units=report.ops_completed,
            rate_s=wall,
            reason="; ".join(reasons),
            detail=detail,
            extras=extras,
        )


class StressThread(_Stress):
    """The system under test's read/write path, with the verifier fed
    online under the history lock."""

    name = "stress-thread"
    runtime = "thread"
    ops_per_worker = 2000
    timelines = {"main": 1, "thread": 2}

    def params(self) -> Dict[str, Any]:
        params = super().params()
        params["pinned_cpus"] = 1
        return params

    def prepare(self, setup_out: str) -> None:
        # Unpinned, the two threads share one CPU in some runs and
        # spread over two in others, and throughput and primitives per
        # op flip between two regimes.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class StressProcessChaos(_Stress):
    """IPC, server-side event-log encoding, log replay and fault
    decisions: the only workload that runs them."""

    name = "stress-process-chaos"
    runtime = "process"
    ops_per_worker = 1000
    faults = "delay,partition"
    fault_rate = 10
    timelines = {"main": 1, "server": 1, "worker": 2}

    def params(self) -> Dict[str, Any]:
        params = super().params()
        params["placement"] = "server on one CPU, both workers on another"
        return params

    def prepare(self, setup_out: str) -> None:
        # Three busy processes on two CPUs: left to the OS scheduler, who
        # shares a CPU changes from job to job and the per-job rate
        # spreads ~12%; a fixed placement halves that.
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else []
        if len(cpus) < 2:
            return
        from repro.rt import process_runtime

        def placed(fn, cpu):
            def entry(*args, **kwargs):
                os.sched_setaffinity(0, {cpu})
                return fn(*args, **kwargs)
            return entry

        process_runtime._server_main = placed(
            process_runtime._server_main, cpus[0]
        )
        process_runtime._worker_main = placed(
            process_runtime._worker_main, cpus[1]
        )


# -- serve -------------------------------------------------------------------


SERVE_ROSTER = {"r": 2, "w": 1, "a": 1}


def generate_serve_log(seed: int, ops_per_process: int, path: str) -> None:
    """The serve-audit input: a stress-roster history on the simulator
    under ``RandomSchedule(seed)``, streamed as a JSONL event log with
    the stress ``hello`` meta, so ``repro serve`` rebuilds its validator
    from the log alone.  Byte-identical for equal arguments."""
    from repro.analysis.streamlin import DEFAULT_WINDOW
    from repro.rt.stress import (
        _stress_pids,
        build_stress_register,
        stress_op_source,
    )
    from repro.sim.event_log import JsonlEventSink
    from repro.sim.runner import Simulation
    from repro.sim.scheduler import RandomSchedule

    r, w, a = SERVE_ROSTER["r"], SERVE_ROSTER["w"], SERVE_ROSTER["a"]
    reg = build_stress_register("register", r, w, seed)
    sim = Simulation(RandomSchedule(seed), max_steps=10**8)
    sink = JsonlEventSink(path, meta={
        "kind": "stress",
        "object": "register",
        "r": r,
        "w": w,
        "a": a,
        "seed": seed,
        "max_substrate": "atomic",
        "snapshot_substrate": "afek",
        "window": DEFAULT_WINDOW,
    })
    sim.history.stream_to(sink, retain=False)
    for pid, role, index in _stress_pids("register", r, w, a):
        sim.spawn(pid)
        source = stress_op_source(reg, pid, "register", seed, role, index)
        sim.add_program(pid, [source() for _ in range(ops_per_process)])
    sim.run()
    sink.close()


def end_marker_events(path: str) -> int:
    """The event count declared by the log's ``end`` marker, its last
    line."""
    line = ""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            pass
    marker = json.loads(line) if line.strip() else {}
    if marker.get("k") != "end":
        raise ValueError(f"{path}: the log has no end marker")
    return marker["events"]


class ServeAudit(Workload):
    """The verifier alone, dominated by audits whose answers grow with
    the run; the system under test is idle."""

    name = "serve-audit"
    rate_name = "events_per_s"
    rate_unit = "events/s"
    ops_per_process = 300

    def params(self) -> Dict[str, Any]:
        return {
            "entry": "repro.rt.serve.serve_file",
            "log": "simulator, RandomSchedule(seed)",
            "roster": SERVE_ROSTER,
            "ops_per_process": self.ops_per_process,
        }

    def setup(self, out: str) -> Dict[str, Any]:
        generate_serve_log(self.seed, self.ops_per_process, out)
        return {"sha256": sha256_file(out), "bytes": os.path.getsize(out)}

    def prepare(self, setup_out: str) -> None:
        self.log = setup_out
        self.units_per_job = end_marker_events(setup_out)

    def job(self, k: int) -> JobResult:
        from repro.rt.serve import VerdictServer, serve_file

        start = time.perf_counter()
        server = VerdictServer()
        outcome = serve_file(server, self.log)
        wall = time.perf_counter() - start
        reasons = []
        if outcome.status != "ok":
            reasons.append(f"status={outcome.status}")
        if outcome.audit_ok is not True:
            reasons.append(f"audit_ok={outcome.audit_ok}")
        if not outcome.clean_end or not (
            server.events == server.declared_events == self.units_per_job
        ):
            reasons.append(
                f"served {server.events} events, read end marker "
                f"{server.declared_events}, log declares {self.units_per_job}"
            )
        return JobResult(
            units=self.units_per_job,
            ok=not reasons,
            wall_s=wall,
            rate_units=server.events,
            rate_s=wall,
            reason="; ".join(reasons),
            detail={"events": server.events},
            extras=dict(outcome.stream),
        )


# -- explore -----------------------------------------------------------------


FUZZ_TARGETS = ("alg1-w1-a1", "alg2-w1-r1")


class Explore(Workload):
    """Simulator, checkpoints, fingerprints and batch fastlin; no
    runtime, event log or streaming verifier."""

    name = "explore"
    rate_name = "states_per_s"
    rate_unit = "states/s"
    min_jobs = 2
    schedules_per_target = 1024

    @property
    def units_per_job(self) -> int:
        executions = sum(e for e, _ in EXPECTED_EXPLORE.values())
        return executions + self.schedules_per_target * len(FUZZ_TARGETS)

    def params(self) -> Dict[str, Any]:
        return {
            "entry": "repro.mc.explorer.explore, repro.fuzz.campaign.run_campaign",
            "scenarios": list(EXPECTED_EXPLORE),
            "fuzz_targets": list(FUZZ_TARGETS),
            "sampler": "pct",
            "schedules_per_target": self.schedules_per_target,
        }

    def _scenarios(self):
        from repro.mc import scenarios

        for name in EXPECTED_EXPLORE:
            if name == "alg1-r2-w1":
                yield name, (
                    scenarios.register_scenario_factory(2, 1, 0),
                    scenarios.register_scenario_check,
                )
            else:
                yield name, scenarios.get_scenario(name)()

    def setup(self, out: str) -> Dict[str, Any]:
        from repro.fuzz.targets import get_target

        names = [name for name, _ in self._scenarios()]
        for target in FUZZ_TARGETS:
            get_target(target)
        return {"scenarios": names, "targets": list(FUZZ_TARGETS)}

    def job(self, k: int) -> JobResult:
        from repro.fuzz import campaign
        from repro.mc import explorer

        reasons: List[str] = []
        totals = dict.fromkeys(
            ("executions", "distinct_states", "sleep_pruned",
             "fingerprint_hits", "restores"), 0,
        )
        start = time.perf_counter()
        for name, (factory, check) in self._scenarios():
            report = explorer.explore(factory, check)
            for key in totals:
                totals[key] += getattr(report, key)
            counts = (report.executions, report.distinct_states)
            if not report.ok:
                reasons.append(f"{name}: {report.violations[:1]}")
            if counts != EXPECTED_EXPLORE[name]:
                reasons.append(
                    f"{name}: (executions, states) {counts} != "
                    f"{EXPECTED_EXPLORE[name]}"
                )
        check_s = time.perf_counter() - start
        checkpoint = os.path.join(self.work, f"fuzz-{k}.jsonl")
        fuzz_start = time.perf_counter()
        fuzzed = campaign.run_campaign(
            list(FUZZ_TARGETS),
            schedules=self.schedules_per_target,
            batch=128,
            sampler="pct",
            root_seed=job_seed(self.seed, k),
            checkpoint=checkpoint,
        )
        fuzz_s = time.perf_counter() - fuzz_start
        wall = time.perf_counter() - start
        if os.path.exists(checkpoint):
            os.unlink(checkpoint)
        expected_schedules = self.schedules_per_target * len(FUZZ_TARGETS)
        if fuzzed.violations or fuzzed.partial:
            reasons.append(f"fuzz: {fuzzed.violations} violations")
        if fuzzed.schedules != expected_schedules:
            reasons.append(
                f"fuzz: {fuzzed.schedules}/{expected_schedules} schedules"
            )
        extras: Dict[str, Any] = dict(totals)
        extras["fuzz_steps"] = fuzzed.steps
        return JobResult(
            units=self.units_per_job,
            ok=not reasons,
            wall_s=wall,
            rate_units=totals["distinct_states"],
            rate_s=check_s,
            reason="; ".join(reasons),
            detail={
                "schedules_per_s": fuzzed.schedules / fuzz_s,
                "executions": totals["executions"],
                "fuzz_steps": fuzzed.steps,
            },
            extras=extras,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (StressThread, StressProcessChaos, ServeAudit, Explore)
}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
