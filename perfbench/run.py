"""Benchmark of the verification pipeline: one workload per invocation.

    python3 perfbench/run.py --workload stress-thread --seed 1 \
        --seconds 10 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``).
Set-up is timed SETUP_REPS times in fresh interpreters: once before
measuring, the rest spread over the measured window.  Fixed-size jobs
run in a closed loop for ``--seconds``, every job checked against its
expected verdict.  ``--trace 0`` prints the end-to-end metrics; with
``--trace 1`` untraced and traced jobs alternate and the per-layer
table, its reconciliation and the tracing overhead are printed
instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Callable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

SETUP_REPS = 7
SETUP_TIMEOUT_S = 120

#: The end-to-end metrics of every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("verdict_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _git_sha() -> Optional[str]:
    """HEAD's commit, when the checkout is a git work tree of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    # Without a .git of its own, git would name an enclosing repository.
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_sha() -> str:
    """sha256 over every ``.py`` file under ``src/repro``, in path order."""
    import hashlib

    digest = hashlib.sha256()
    paths = []
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(folder, f) for f in files if f.endswith(".py")]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _affinity() -> Optional[List[int]]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return None


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it reaped
    (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    import statistics

    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- set-up --------------------------------------------------------------------


class SetupError(Exception):
    pass


def _setup_probe(args: argparse.Namespace) -> int:
    """Child side of one timed set-up repetition."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, os.path.dirname(args.out))
    print(json.dumps(workload.setup(args.out), sort_keys=True))
    return 0


class Setup:
    """SETUP_REPS timed set-ups, each in a fresh interpreter.

    The first writes the inputs the jobs use.  The others are spread
    evenly over the measured window: the shared host slows whole
    stretches of a run (README, "Host noise"), and set-ups made back to
    back all land in one stretch.  Every repetition must report the same
    input digest: set-up is a pure function of the seed.
    """

    def __init__(self, workload, work: str, seconds: float) -> None:
        self.workload = workload
        self.work = work
        self.out = os.path.join(work, "setup.out")
        self.times: List[float] = []
        self.digest: Optional[str] = None
        later = SETUP_REPS - 1
        #: Offsets into the measured window at which the later
        #: repetitions fall due: the middle of each of ``later`` slots.
        self.due = [seconds * (i + 0.5) / later for i in range(later)]

    def rep(self) -> None:
        first = not self.times
        out = self.out if first else os.path.join(self.work, "setup-rep.out")
        command = [
            sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", self.workload.name,
            "--seed", str(self.workload.seed), "--out", out,
        ]
        start = time.perf_counter()
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        self.times.append(time.perf_counter() - start)
        if not first and os.path.exists(out):
            os.unlink(out)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed:\n{proc.stderr}")
        digest = proc.stdout.strip().splitlines()[-1]
        if first:
            self.digest = digest
            print(f"setup digest: {digest}")
        elif digest != self.digest:
            raise SetupError(
                f"set-up not deterministic: {digest} != {self.digest}"
            )

    def between(self, elapsed: float) -> None:
        """Make the repetitions due ``elapsed`` seconds into the window."""
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.rep()

    def finish(self) -> None:
        """Make the repetitions the window ended before."""
        while self.due:
            self.due.pop(0)
            self.rep()


# -- measurement -----------------------------------------------------------------


def _traced_job(workload, tracer, k: int):
    from tracing import Profile

    tracer.install()
    try:
        timeline = tracer.begin("main")
        start = time.perf_counter()
        try:
            result = workload.job(k)
        finally:
            elapsed = time.perf_counter() - start
            tracer.end(timeline, elapsed)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
        orphan, tracer.orphan_s = tracer.orphan_s, 0.0
        timelines, runs = tracer.take()
    return result, Profile(timelines, wall, orphan, runs, workload.timelines)


def _failed(exc: Exception, units: int):
    """A job that raised: all of its units failed."""
    from workloads import JobResult

    return JobResult(
        units=units, ok=False, wall_s=0.0, rate_units=0, rate_s=0.0,
        reason=f"{type(exc).__name__}: {exc}",
    )


def _measure(
    workload,
    seconds: float,
    trace: bool,
    tracer,
    between: Optional[Callable[[float], None]] = None,
):
    """Closed loop of jobs for ``seconds`` (at least ``min_jobs``).
    Traced runs alternate an untraced and a traced job on one seed.
    ``between(elapsed)`` runs after each iteration."""
    plain: List[Any] = []
    traced: List[Tuple[Any, Any]] = []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while len(plain) < workload.min_jobs or time.perf_counter() < deadline:
        try:
            plain.append(workload.job(k))
        except Exception as exc:  # noqa: BLE001 - the job's verdict
            plain.append(_failed(exc, workload.units_per_job))
        if trace:
            try:
                traced.append(_traced_job(workload, tracer, k))
            except Exception as exc:  # noqa: BLE001 - the job's verdict
                traced.append((_failed(exc, workload.units_per_job), None))
        k += 1
        if between is not None:
            between(time.perf_counter() - start)
    return plain, traced


def _report_jobs(label: str, jobs: List[Any]) -> None:
    failed = [job for job in jobs if not job.ok]
    walls = [job.wall_s for job in jobs]
    q1, q2, q3 = _quartiles(walls)
    print(
        f"{label}: {len(jobs)} jobs, {len(jobs) - len(failed)} passed the "
        f"verdict gate; job wall median {q2:.4f}s (q1 {q1:.4f}, q3 {q3:.4f})"
    )
    for job in failed[:5]:
        print(f"  FAILED: {job.reason}")


def _print_metrics(rows: List[Tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.4f}  {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    if args.setup_probe:
        return _setup_probe(args)

    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, WORKLOADS[args.workload](args.seed, work), work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's work directory is still there


def _run(args, workload, work: str) -> int:
    from tracing import PER_LAYER, Tracer
    from workloads import DETAIL_UNITS, median

    setup = Setup(workload, work, args.seconds)
    setup.rep()
    workload.prepare(setup.out)
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": _affinity(),
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    tracer = Tracer(os.path.join(work, "spans"))
    plain, traced = _measure(
        workload, args.seconds, bool(args.trace), tracer, setup.between
    )
    setup.finish()
    _report_jobs("untraced", plain)
    jobs = list(plain)
    if traced:
        _report_jobs("traced", [job for job, _ in traced])
        jobs += [job for job, _ in traced]
    attempted = sum(job.units for job in jobs)
    failed = sum(job.units for job in jobs if not job.ok)
    correct = failed == 0

    setup_s = median(setup.times)
    peak_rss = _peak_rss_mb()
    # The shared host slows whole stretches of a run by a quarter or more
    # (README, "Host noise"): the upper quartile of per-job rates and the
    # lower quartile of job times follow the program, not its neighbours.
    rate = _quartiles(
        [job.rate_units / job.rate_s for job in plain if job.rate_s]
    )[2]
    verdict_s = _quartiles([job.wall_s for job in plain])[0]
    q1, _, q3 = _quartiles(setup.times)
    print(
        f"{workload.name}: {len(setup.times)} set-ups, "
        f"q1 {q1:.4f}s, q3 {q3:.4f}s"
    )
    print(f"{workload.name}: end-to-end, untraced jobs")
    rows = [
        ("setup_s", setup_s, "s"),
        (workload.rate_name, rate, workload.rate_unit),
    ]
    passed = [job for job in plain if job.ok] or plain
    for key in passed[0].detail:
        values = [job.detail.get(key, 0.0) for job in plain]
        rows.append((key, median(values), DETAIL_UNITS[key]))
    rows += [
        ("verdict_s", verdict_s, "s"),
        ("peak_rss_mb", peak_rss, "MB"),
        ("failed_share", failed / attempted if attempted else 0.0, "share"),
    ]
    _print_metrics(rows)

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "throughput_per_s": rate,
            "verdict_s": verdict_s,
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
    else:
        metrics, correct = _trace_report(workload, plain, traced, correct)
        units = {name: unit for name, unit, _ in PER_LAYER}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def _trace_report(workload, plain, traced, correct: bool):
    """Print the reconciled per-layer table; return (metrics, correct)."""
    from tracing import PER_LAYER
    from workloads import median

    profiles = [(job, profile) for job, profile in traced if profile is not None]
    untraced_s = median([job.wall_s for job in plain])
    overhead_s = median([job.wall_s for job, _ in profiles]) - untraced_s
    print(
        f"{workload.name}: tracing overhead {overhead_s:+.4f}s per job "
        f"(traced median minus untraced median, "
        f"{overhead_s / untraced_s if untraced_s else 0.0:+.1%})"
    )
    worst = ""
    worst_delta = -1.0
    passed = 0
    for k, (_, profile) in enumerate(profiles):
        ok, detail = profile.reconcile()
        passed += ok
        if not ok:
            print(f"reconcile traced job {k}: FAILED {detail}")
        delta = abs(profile.rows_total() - profile.traced_total())
        if delta > worst_delta:
            worst_delta, worst = delta, detail
    print(
        f"reconcile: {passed}/{len(profiles)} traced jobs within tolerance; "
        f"largest gap: {worst}"
    )
    correct = correct and passed == len(profiles)
    if not profiles:
        return {}, False
    # The table of the traced job with the median wall time.
    ordered = sorted(profiles, key=lambda pair: pair[0].wall_s)
    job, profile = ordered[len(ordered) // 2]
    print(
        f"{workload.name}: per-layer self time of the median traced job "
        f"(timelines: {profile.timeline_summary()})"
    )
    for line in profile.table():
        print(line)
    per_job = [p.metrics(j.extras, overhead_s) for j, p in profiles]
    metrics = {
        name: median([values[name] for values in per_job])
        for name in per_job[0]
    }
    print(f"{workload.name}: per-layer metrics (medians over traced jobs)")
    _print_metrics([(name, metrics[name], unit) for name, unit, _ in PER_LAYER])
    return metrics, correct


if __name__ == "__main__":
    sys.exit(main())
