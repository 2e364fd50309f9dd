"""Command-line entry point.

    python -m repro                     # overview
    python -m repro experiments [E...]  # run experiment drivers
    python -m repro campaign run SPEC   # declarative multi-section campaign
    python -m repro sweep [options]     # parallel seeded sweep (engine)
    python -m repro check [options]     # model checking (repro.mc)
    python -m repro fuzz [options]      # schedule fuzzing (repro.fuzz)
    python -m repro stress [options]    # threaded stress/throughput (repro.rt)
    python -m repro lin FILE [options]  # linearizability verdict service
    python -m repro serve LOG [options] # streaming verification service
    python -m repro attacks             # run the attack gallery
    python -m repro version             # also: --version

(The ``repro`` console script, installed via pyproject, is the same
entry point.)

Campaign example -- one declarative spec crossing scenarios, runtimes,
fault settings and seeds across any of the subsystems below, run as
one resumable invocation (see DESIGN.md section 12)::

    python -m repro campaign run spec.toml --workers 4 --out nightly
    python -m repro campaign example > spec.toml   # a worked template

``sweep``, ``check``, ``fuzz``, ``stress`` and ``lin`` each run one
campaign section built from their flags; ``--print-spec`` prints that
section's spec instead of running it (all but ``lin``, whose history
payloads carry JSON nulls that TOML cannot write).

Sweep example -- 64 derived seeds per grid point, fanned out over 4
worker processes, streamed to a resumable JSONL checkpoint::

    python -m repro sweep --seeds 64 --readers 1 2 4 --writers 1 2 \\
        --workers 4 --out sweep.jsonl

Model-checking example -- verify every interleaving of the E13 suite,
partial-order reduced, each exploration forked over the available
CPUs, one resumable JSONL record per scenario::

    python -m repro check --out mc.jsonl

Fuzz example -- 1024 PCT-sampled schedules of a scenario too large to
model-check, fanned over 4 workers with a resumable JSONL checkpoint,
the first violation shrunk and saved as a replayable trace::

    python -m repro fuzz --target buggy-maxreg-deep --sampler pct \\
        --schedules 1024 --workers 4 --out fuzz.jsonl \\
        --save-trace counterexample.json

    python -m repro fuzz --replay counterexample.json

Stress example -- Algorithm 1 on 8 real threads, post-validated by the
linearizability checker::

    python -m repro stress --object register --threads 8

Verdict-service example -- check recorded histories (one JSON array of
operation payloads per line, each one point of a ``lin`` campaign
section) against a named spec, fanned over 4 workers, profiling nodes
explored::

    python -m repro lin histories.jsonl --spec register --workers 4

Streaming-service example -- a duration-bounded stress run validated
online, without buffering its history, while `repro serve` follows its
event log::

    python -m repro stress --object register --duration 60 --online \\
        --event-log run.jsonl &
    python -m repro serve run.jsonl --follow

Quick serial sanity passes (used by CI)::

    python -m repro sweep --smoke
    python -m repro check --smoke
    python -m repro fuzz --smoke --expect-violation
    python -m repro stress --smoke
    python -m repro serve --smoke
    python -m repro campaign run --smoke
"""

from __future__ import annotations

import sys


def _overview() -> int:
    from repro import __version__
    from repro.harness.experiment import registry
    import repro.harness.experiments  # noqa: F401 -- registers drivers

    print(f"repro {__version__} -- Auditing without Leaks Despite "
          "Curiosity (PODC 2025) reproduction")
    print()
    print("commands:")
    print("  python -m repro experiments [names]   run experiment drivers")
    print("  python -m repro campaign run SPEC     declarative campaign "
          "(crossed sections)")
    print("  python -m repro sweep [options]       parallel seeded sweep")
    print("  python -m repro check [options]       model checking "
          "(all interleavings)")
    print("  python -m repro fuzz [options]        randomized schedule "
          "fuzzing")
    print("  python -m repro stress [options]      threaded stress / "
          "throughput")
    print("  python -m repro lin FILE [options]    linearizability verdict "
          "service")
    print("  python -m repro serve LOG [options]   streaming verification "
          "service")
    print("  python -m repro attacks               run the attack gallery")
    print("  python -m repro version               print the version")
    print()
    print("examples:")
    print("  python -m repro campaign example > spec.toml && "
          "python -m repro campaign run spec.toml")
    print("  python -m repro sweep --seeds 64 --workers 4 --out sweep.jsonl")
    print("  python -m repro check --compare --out mc.jsonl")
    print("  python -m repro fuzz --target buggy-maxreg-deep "
          "--sampler pct --schedules 1024")
    print("  python -m repro stress --object register --threads 8")
    print()
    print("registered experiments:", " ".join(sorted(registry())))
    return 0


#: Help epilog of every subcommand that runs one campaign section.
_CAMPAIGN_EPILOG = (
    "This command runs one section of a campaign spec: 'python -m repro "
    "campaign run SPEC' runs the same section as part of a "
    "multi-section campaign (crossed axes, per-section resumable "
    "checkpoints).  --print-spec prints this invocation's spec instead "
    "of running it."
)


def _add_print_spec(parser) -> None:
    parser.add_argument(
        "--print-spec", action="store_true",
        help="print the campaign spec (TOML) this invocation runs and "
        "exit (see python -m repro campaign)",
    )


def _section_spec(command, args, build, unexpressed=()):
    """Build (``build(spec)``) and validate a subcommand's one-section
    spec.  Returns ``(spec, None)`` to run it, else ``(None, exit
    code)``: an invalid spec, or ``--print-spec`` handled -- refused
    when ``unexpressed`` names set flags no spec can express."""
    from repro.campaign import CampaignSpec, SpecError, compile_section
    from repro.campaign import dumps_spec

    spec = CampaignSpec(name=f"cli-{command}")
    try:
        build(spec)
        compile_section(spec.sections[0], spec.root_seed)
    except SpecError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None, 2
    if not args.print_spec:
        return spec, None
    if unexpressed:
        print(
            f"{command}: --print-spec cannot express "
            f"{', '.join(unexpressed)} (campaign points are bounded "
            "and deterministic)",
            file=sys.stderr,
        )
        return None, 2
    sys.stdout.write(dumps_spec(spec))
    return None, 0


def _sweep(argv) -> int:
    """The ``sweep`` subcommand: one ``sweep`` campaign section."""
    import argparse

    from repro.campaign import EngineOptions, OutputOptions, run_section
    from repro.engine.aggregate import EXIT_CODES, aggregate_counts
    from repro.harness.tables import render_table

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run seeded executions of an auditable object over a "
        "parameter grid, checking linearizability and audit exactness "
        "per execution.  Seeds are derived deterministically from "
        "--root-seed, so results depend only on the grid, never on "
        "worker count or scheduling.",
        epilog=_CAMPAIGN_EPILOG,
    )
    parser.add_argument(
        "--object", choices=("register", "snapshot"), default="register",
        help="which auditable object to sweep (default: register)",
    )
    parser.add_argument(
        "--seeds", type=int, default=16, metavar="N",
        help="seeded executions per grid point (default: 16)",
    )
    parser.add_argument(
        "--root-seed", type=int, default=0,
        help="root of the deterministic seed fan-out (default: 0)",
    )
    parser.add_argument(
        "--readers", type=int, nargs="+", default=[1, 2, 4],
        help="reader counts for the register grid (default: 1 2 4)",
    )
    parser.add_argument(
        "--writers", type=int, nargs="+", default=[1, 2],
        help="writer counts for the register grid (default: 1 2)",
    )
    EngineOptions.add_to_parser(parser)
    OutputOptions.add_to_parser(
        parser,
        out_help="JSONL checkpoint: one canonical record per execution; "
        "rerunning with the same file resumes an interrupted sweep",
    )
    _add_print_spec(parser)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny serial sweep (2 seeds, one grid point) for CI",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.seeds, args.readers, args.writers, args.workers = 2, [1], [1], 1

    def build(spec):
        spec.root_seed = args.root_seed
        sec = spec.section(
            "sweep", "sweep", seeds=args.seeds, object=args.object,
        )
        if args.object == "register":
            sec.axis("num_readers", *args.readers)
            sec.axis("num_writers", *args.writers)
        else:
            sec.axis("substrate", "afek", "atomic")

    spec, code = _section_spec("sweep", args, build)
    if code is not None:
        return code
    section = spec.sections[0]
    output = OutputOptions.from_args(args)

    def progress(done, total, record):
        if done % 25 == 0 or done == total:
            print(f"sweep [{done}/{total}]", file=sys.stderr, flush=True)

    outcome = run_section(
        section,
        spec.root_seed,
        workers=args.workers,
        checkpoint=output.out,
        resume=output.resume,
        progress=progress,
    )

    def point_label(record):
        point = record["params"]["point"]
        return ",".join(
            f"{axis.name}={point[axis.name]}" for axis in section.axes
        )

    check_fields = ("lin_fail", "audit_fail")
    if args.object == "register":
        check_fields += ("structural_fail",)
    rows = []
    for group in aggregate_counts(outcome.records, key=point_label):
        row = {"point": group["group"], "executions": group["executions"]}
        for name in check_fields:
            row[name.replace("_", " ")] = group.get(name, 0)
        row["total steps"] = group.get("steps", 0)
        rows.append(row)
    print(render_table(rows))
    print()
    verdict = outcome.verdict
    print(
        f"  [{verdict}] {len(outcome.records)} executions "
        f"({outcome.executed} run, {outcome.skipped} resumed) in "
        f"{outcome.elapsed:.2f}s with {outcome.workers} worker(s); "
        "no linearizability or audit-exactness violations"
        if verdict == "PASS"
        else f"  [{verdict}] violations found -- inspect the JSONL records"
    )
    if outcome.checkpoint:
        print(f"  records: {outcome.checkpoint}")
    return EXIT_CODES[verdict]


def _check(argv) -> int:
    """The ``check`` subcommand: one ``check`` campaign section, run
    in-process so each point's ``mc.explore`` forks its own workers."""
    import argparse

    from repro.campaign import OutputOptions, run_section
    from repro.engine.aggregate import EXIT_CODES, fold_verdicts
    from repro.harness.tables import render_table
    from repro.mc.scenarios import E13_SUITE, scenario_names

    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Exhaustively verify named scenarios over every "
        "interleaving (up to partial-order reduction): linearizability, "
        "audit exactness, phase structure and pad discipline are "
        "checked on each explored execution.  Budgets bound the "
        "exploration; exceeding one reports the partial evidence and "
        "exits 2.",
        epilog=_CAMPAIGN_EPILOG,
    )
    parser.add_argument(
        "--scenario", nargs="+", default=None, metavar="NAME",
        help="registered scenario names (default: the E13 suite; "
        "see --list)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="disable partial-order reduction (raw enumeration)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="run both raw and reduced exploration, report the "
        "reduction factor and verify the verdict sets coincide",
    )
    parser.add_argument(
        "--max-executions", type=int, default=300_000, metavar="N",
        help="execution budget per scenario (default: 300000); "
        "exceeding it yields a PARTIAL verdict from the executions "
        "explored so far",
    )
    parser.add_argument(
        "--max-depth", type=int, default=200, metavar="D",
        help="schedule-depth budget (default: 200)",
    )
    OutputOptions.add_to_parser(
        parser,
        out_help="JSONL checkpoint: one canonical record per scenario "
        "(and, with --compare, per leg); rerunning with the same file "
        "resumes an interrupted check.  Each exploration forks one "
        "explorer per available CPU",
    )
    _add_print_spec(parser)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny serial reduced check of one scenario (for CI)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in scenario_names():
            print(name)
        return 0

    if args.smoke and args.scenario:
        print(
            "--smoke runs a fixed scenario with fixed settings and "
            "cannot be combined with --scenario",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        args.scenario = ["alg1-w1-r1"]
        args.out, args.baseline = None, False
    names = args.scenario or [key for _, key in E13_SUITE]

    def build(spec):
        sec = spec.section(
            "check", "check",
            max_executions=args.max_executions, max_depth=args.max_depth,
        )
        sec.axis("scenario", *names)
        if args.compare:
            sec.axis("reduce", False, True)
        else:
            sec.param(reduce=not args.baseline)

    spec, code = _section_spec("check", args, build)
    if code is not None:
        return code
    section = spec.sections[0]
    output = OutputOptions.from_args(args)

    def leg(point):
        baseline = args.compare and not point["reduce"]
        return point["scenario"] + (", baseline" if baseline else "")

    outcome = run_section(
        section, workers=1, checkpoint=output.out, resume=output.resume,
    )
    legs: dict = {}
    for record in outcome.records:
        point, payload = record["params"]["point"], record["payload"]
        legs.setdefault(point["scenario"], []).append(payload)
        for violation in payload["violations"]:
            print(f"  violation [{leg(point)}]: {violation}", file=sys.stderr)
        if payload["budget"]:
            print(f"  budget [{leg(point)}]: {payload['budget']}; partial "
                  f"report covers {payload['executions']} executions",
                  file=sys.stderr)
    rows, verdicts = [], []
    for name, payloads in legs.items():
        reduced = payloads[-1]
        row = {
            "scenario": name,
            "explored": reduced["executions"],
            "states": reduced["distinct_states"],
            "violations": reduced["violation_count"],
        }
        verdict = fold_verdicts(payload["verdict"] for payload in payloads)
        if args.compare:
            raw = payloads[0]
            complete = raw["budget"] is None
            row["baseline"] = f"{raw['executions']}{'' if complete else '+'}"
            row["reduction"] = (
                f"{raw['executions'] / reduced['executions']:.1f}x"
                if complete and reduced["executions"] else "-"
            )
            if complete and raw["verdicts"] != reduced["verdicts"]:
                verdict = "MISMATCH"
        row["verdict"] = verdict
        rows.append(row)
        verdicts.append("FAIL" if verdict == "MISMATCH" else verdict)
    print(render_table(rows))
    return EXIT_CODES[fold_verdicts(verdicts)]


def _fuzz(argv) -> int:
    """The ``fuzz`` subcommand: one ``fuzz`` campaign section run as a
    single multi-target campaign (``repro.fuzz``), with replay and
    counterexample shrinking."""
    import argparse

    from repro.campaign import EngineOptions, OutputOptions
    from repro.fuzz import (
        DEFAULT_MAX_STEPS,
        ReplayMismatch,
        TraceFormatError,
        dumps_trace,
        get_target,
        loads_trace,
        replay_trace,
        sampler_names,
        target_names,
    )
    from repro.fuzz.campaign import run_campaign
    from repro.harness.tables import render_table
    from repro.mc.scenarios import E13_SUITE

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Sample randomized schedules of named targets "
        "(every model-checking scenario plus crash-injecting fuzz "
        "targets), judging each complete execution with the target's "
        "oracle (fastlin verdicts, audit exactness).  Every run records "
        "a replayable trace; the first violation is delta-debugged to a "
        "locally-minimal counterexample schedule.  Exit codes: 0 all "
        "schedules clean, 1 a violation was found, 2 PARTIAL (the "
        "wall-clock budget expired before the campaign finished, or a "
        "schedule hit --max-steps before it could be judged) or a "
        "usage error.",
        epilog=_CAMPAIGN_EPILOG,
    )
    parser.add_argument(
        "--target", nargs="+", default=None, metavar="NAME",
        help="fuzz target names (default: the E13 suite; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered fuzz targets and exit",
    )
    parser.add_argument(
        "--sampler", choices=sampler_names(), default="uniform",
        help="schedule sampler (default: uniform)",
    )
    parser.add_argument(
        "--pct-depth", type=int, default=3, metavar="D",
        help="PCT bug depth for --sampler pct (default: 3)",
    )
    parser.add_argument(
        "--fault-max-rate", type=int, default=5000, metavar="N",
        help="for --sampler fault: ceiling of the per-run fault rate "
        "drawn from each seed, in faults per 10000 decisions "
        "(default: 5000)",
    )
    parser.add_argument(
        "--schedules", type=int, default=256, metavar="N",
        help="schedules per target (default: 256)",
    )
    parser.add_argument(
        "--batch", type=int, default=32, metavar="N",
        help="schedules per engine task; the unit of parallel fan-out "
        "and of checkpoint resume (default: 32)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="root of the deterministic seed fan-out (default: 0)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=DEFAULT_MAX_STEPS, metavar="N",
        help=f"schedule-length budget per run "
        f"(default: {DEFAULT_MAX_STEPS})",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="keep the first violating trace as recorded "
        "(skip delta debugging)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="run the whole campaign even after a violation "
        "(default: stop after the first violating chunk)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; expiring mid-campaign reports the "
        "partial evidence and exits 2",
    )
    parser.add_argument(
        "--save-trace", default=None, metavar="FILE",
        help="write the first violation's (shrunk) trace as canonical "
        "JSON for --replay",
    )
    parser.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-execute a saved trace byte-identically and report its "
        "verdict (ignores the campaign options)",
    )
    parser.add_argument(
        "--expect-violation", action="store_true",
        help="invert the verdict for CI: exit 0 iff a violation was "
        "found (campaign) or reproduced (--replay)",
    )
    EngineOptions.add_to_parser(
        parser,
        default=1,
        help="worker processes for batch fan-out "
        "(default: 1 = serial; 0 = one per CPU)",
    )
    OutputOptions.add_to_parser(
        parser,
        out_help="JSONL checkpoint: one canonical record per batch; "
        "rerunning with the same file resumes an interrupted campaign",
    )
    _add_print_spec(parser)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed campaign on the naive baseline's seeded "
        "violation (for CI; pair with --expect-violation)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in target_names():
            print(name)
        return 0

    if args.replay:
        try:
            with open(args.replay, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
            trace = loads_trace(text)
        except (OSError, TraceFormatError) as exc:
            print(f"fuzz: cannot load trace: {exc}", file=sys.stderr)
            return 2
        try:
            target = get_target(trace.target)
        except KeyError as exc:
            print(f"fuzz: {exc}", file=sys.stderr)
            return 2
        try:
            result = replay_trace(target, trace)
        except ReplayMismatch as exc:
            print(f"fuzz: replay diverged: {exc}", file=sys.stderr)
            return 2
        # Byte-identity is judged on canonical serializations, so an
        # equivalent non-canonical encoding of the same trace (pretty-
        # printed JSON) replays fine; only a diverging verdict fails.
        identical = dumps_trace(result.trace) == dumps_trace(trace)
        print(f"  target:   {trace.target}")
        print(f"  decisions:{len(trace):>6}")
        print(f"  recorded: {trace.verdict or 'clean'}")
        print(f"  replayed: {result.verdict or 'clean'}")
        print(f"  byte-identical re-execution: "
              f"{'yes' if identical else 'NO'}")
        if not identical:
            print(
                "fuzz: re-execution diverged from the recorded trace "
                "(replayed verdict differs)",
                file=sys.stderr,
            )
            return 2
        violating = result.verdict is not None
        if args.expect_violation:
            return 0 if violating else 1
        return 1 if violating else 0

    if args.smoke:
        overridden = [
            flag
            for flag, name in (
                ("--target", "target"), ("--sampler", "sampler"),
                ("--schedules", "schedules"), ("--batch", "batch"),
                ("--seed", "seed"), ("--workers", "workers"),
            )
            if getattr(args, name) != parser.get_default(name)
        ]
        if overridden:
            print(
                "--smoke runs a fixed target with fixed settings and "
                f"cannot be combined with {', '.join(overridden)}",
                file=sys.stderr,
            )
            return 2
        args.target = ["naive-crash-audit"]
        args.schedules, args.batch, args.workers = 64, 16, 1
        args.sampler, args.seed = "uniform", 0
    names = args.target or [key for _, key in E13_SUITE]
    sampler_params = {}
    if args.sampler == "pct":
        sampler_params["depth"] = args.pct_depth
    if args.sampler == "fault":
        sampler_params["max_rate_per_10k"] = args.fault_max_rate

    def build(spec):
        sec = spec.section(
            "fuzz", "fuzz", seeds=[args.seed],
            sampler=args.sampler,
            schedules=args.schedules,
            batch=args.batch,
            shrink=not args.no_shrink,
        )
        if args.max_steps != DEFAULT_MAX_STEPS:
            sec.param(max_steps=args.max_steps)
        if sampler_params:
            sec.param(sampler_params=sampler_params)
        if args.keep_going:
            sec.param(stop_on_violation=False)
        sec.axis("target", *names)

    spec, code = _section_spec(
        "fuzz", args, build,
        unexpressed=["--time-budget"] if args.time_budget is not None
        else [],
    )
    if code is not None:
        return code
    section = spec.sections[0]
    output = OutputOptions.from_args(args)

    def progress(done, total, record):
        if done % 4 == 0 or done == total:
            print(f"fuzz [{done}/{total} batches]",
                  file=sys.stderr, flush=True)

    # One campaign over every target: it owns batch fan-out, the time
    # budget and the stop at the first violation across targets.  The
    # section's params are run_campaign settings (as in FuzzExecutor).
    report = run_campaign(
        names,
        root_seed=section.seeds[0],
        workers=EngineOptions.from_args(args).resolved,
        checkpoint=output.out,
        resume=output.resume,
        time_budget=args.time_budget,
        progress=progress,
        **section.params,
    )
    rows = report.target_rows()
    if rows:
        print(render_table(rows))
        print()
    first = report.first_violation
    if first is not None:
        shrunk = first["shrunk"] or first["trace"]
        print(
            f"  violation [{first['target']}]: {first['verdict']}"
        )
        print(
            f"  trace: {first['trace_len']} decisions"
            + (
                f", shrunk to {first['shrunk_len']} "
                f"({first['shrink_checks']} oracle checks)"
                if first["shrunk"] else " (shrinking disabled)"
            )
        )
        if args.save_trace:
            from repro.fuzz import trace_from_payload

            with open(args.save_trace, "w", encoding="utf-8") as handle:
                handle.write(dumps_trace(trace_from_payload(shrunk)))
                handle.write("\n")
            print(f"  counterexample trace: {args.save_trace}")
    print(
        f"  [{report.verdict}] {report.schedules} schedules "
        f"({report.steps} decisions, {report.incomplete} hit the step "
        f"budget) across {len(report.records)} batches in "
        f"{report.elapsed:.2f}s with {report.workers} worker(s); "
        f"{report.violations} violating schedule(s)"
    )
    if report.checkpoint:
        print(f"  records: {report.checkpoint}")
    code = report.exit_code
    if args.expect_violation:
        return 0 if code == 1 else (code or 1)
    return code


def _stress(argv) -> int:
    """The ``stress`` subcommand: one ``stress`` campaign point on real
    threads or processes (``repro.rt``), with throughput, latency and
    the streaming options only the standalone run has."""
    import argparse

    from repro.campaign import OutputOptions, executor_for
    from repro.engine.aggregate import EXIT_CODES
    from repro.rt import (
        STRESS_OBJECTS,
        STRESS_RUNTIMES,
        run_stress,
    )
    from repro.rt.base import RunAborted
    from repro.rt.stress import supported_fault_families

    parser = argparse.ArgumentParser(
        prog="python -m repro stress",
        description="Run writer/reader/auditor workers against an "
        "auditable object on the thread runtime (one OS thread per "
        "worker) or the process runtime (one OS process per worker, "
        "primitives served by a memory-server process), for an op-count "
        "budget and/or a wall-clock duration.  Reports ops/sec and "
        "latency percentiles; for bounded budgets the recorded history "
        "is post-validated by the linearizability checker (and, where "
        "the syntactic oracle applies, audit exactness).  Exit codes: "
        "0 clean, 1 a validation failure, 2 an undecided "
        "linearizability verdict (node budget) or a usage error.",
        epilog=_CAMPAIGN_EPILOG,
    )
    parser.add_argument(
        "--object", choices=STRESS_OBJECTS, default="register",
        help="which object to stress (default: register)",
    )
    parser.add_argument(
        "--runtime", choices=STRESS_RUNTIMES, default="thread",
        help="execution backend: 'thread' (default) or 'process' "
        "(multiprocessing memory server; scales past the GIL on "
        "multi-core hosts)",
    )
    parser.add_argument(
        "--threads", type=int, default=8, metavar="N",
        help="total worker budget, split readers/writers/auditors "
        "(default: 8); --readers/--writers/--auditors override",
    )
    parser.add_argument("--readers", type=int, default=None, metavar="N")
    parser.add_argument("--writers", type=int, default=None, metavar="N")
    parser.add_argument("--auditors", type=int, default=None, metavar="N")
    parser.add_argument(
        "--ops", type=int, default=None, metavar="N",
        help="operations per thread (default: 25; unbounded with "
        "--duration)",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; threads stop starting new operations "
        "at the deadline",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for write values, pads and nonces (default: 0); "
        "interleavings still come from the OS scheduler",
    )
    parser.add_argument(
        "--faults", default=None, metavar="FAMILIES",
        help="chaos mode: comma-separated fault families injected at "
        "the primitive-arrival seam, per runtime: " + "; ".join(
            f"{runtime}: {', '.join(supported_fault_families(runtime))}"
            for runtime in STRESS_RUNTIMES
        ) + " (e.g. --faults crash,partition,dup)",
    )
    parser.add_argument(
        "--fault-rate", type=int, default=100, metavar="N",
        help="total faults per 10000 primitive requests, split across "
        "the --faults families (default: 100)",
    )
    parser.add_argument(
        "--validate", dest="validate", action="store_true", default=None,
        help="force history post-validation (default: on for op "
        "budgets, off for duration-only runs)",
    )
    parser.add_argument(
        "--no-validate", dest="validate", action="store_false",
        help="skip history post-validation",
    )
    parser.add_argument(
        "--online", action="store_true",
        help="stream instead of buffer: disable history retention and "
        "validate incrementally as events are recorded, so the history "
        "is never buffered (validates duration-only runs too)",
    )
    parser.add_argument(
        "--event-log", default=None, metavar="FILE",
        help="stream every history event to FILE in the JSONL wire "
        "format (consumable by 'python -m repro serve')",
    )
    parser.add_argument(
        "--stream-window", type=int, default=None, metavar="N",
        help="events per budget-accounting window of the online "
        "checker (default: repro.analysis.streamlin.DEFAULT_WINDOW)",
    )
    parser.add_argument(
        "--no-latency", action="store_true",
        help="skip per-op latency sampling (the sample list grows with "
        "the run; recommended for long bounded-memory runs)",
    )
    parser.add_argument(
        "--join-watchdog", type=float, default=None, metavar="SECONDS",
        help="report workers as hung (exit 2, naming their pids) once "
        "this long passes with no operation completed, on either "
        "runtime (default 60, 0 = wait forever)",
    )
    OutputOptions.add_to_parser(
        parser,
        include_resume=False,
        out_help="append one canonical JSONL record of the run's "
        "metrics and verdicts to FILE",
    )
    _add_print_spec(parser)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed run (register, 4 workers, 8 ops/worker, "
        "validated) for CI; combines with --runtime",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.object, args.threads, args.ops = "register", 4, 8
        args.duration, args.seed = None, 0
        args.readers = args.writers = args.auditors = None
    if args.ops is None and args.duration is None:
        args.ops = 25

    def build(spec):
        sec = spec.section(
            "stress", "stress", seeds=[args.seed],
            object=args.object, runtime=args.runtime,
        )
        if args.ops is not None:
            sec.param(ops=args.ops)
        if (args.readers is not None or args.writers is not None
                or args.auditors is not None):
            sec.param(
                readers=args.readers or 0,
                writers=args.writers or 0,
                auditors=args.auditors or 0,
            )
        else:
            sec.param(threads=args.threads)
        if args.faults:
            sec.param(faults=args.faults, fault_rate=args.fault_rate)
        if args.validate is False:
            sec.param(validate=False)

    spec, code = _section_spec(
        "stress", args, build,
        unexpressed=[
            flag for flag, given in (
                ("--duration", args.duration is not None),
                ("--online", args.online),
                ("--event-log", args.event_log is not None),
                ("--stream-window", args.stream_window is not None),
            )
            if given
        ],
    )
    if code is not None:
        return code
    section = spec.sections[0]
    output = OutputOptions.from_args(args)

    try:
        report = run_stress(
            **{"ops": None, "validate": args.validate, **section.params},
            seed=section.seeds[0],
            duration=args.duration,
            online=args.online,
            event_log=args.event_log,
            stream_window=args.stream_window,
            record_latency=not args.no_latency,
            **(
                {}
                if args.join_watchdog is None
                else {"join_watchdog": args.join_watchdog or None}
            ),
        )
    except (ValueError, RunAborted) as exc:
        # A hang or a lost worker or memory server is inconclusive, not
        # a violation; the message names the stuck pids or the process.
        print(f"stress: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if output.out:
        from repro.engine.engine import encode_record

        with open(output.out, "a", encoding="utf-8") as handle:
            handle.write(encode_record(report.to_payload()) + "\n")
        print(f"  record appended: {output.out}")
    return EXIT_CODES[executor_for("stress").judge(report)]


def _serve(argv) -> int:
    """The ``serve`` subcommand: the streaming verification service
    (online fastlin + windowed audit oracle over a JSONL event log)."""
    import argparse
    import json

    from repro.campaign import OutputOptions
    from repro.rt.serve import VerdictServer, serve_file, serve_lines

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Stream a JSONL event log (produced by any runtime "
        "via --event-log, or by 'repro stress --online') through the "
        "incremental linearizability checker and, for stress logs, the "
        "windowed audit-exactness oracle.  The history is never "
        "buffered (the checker's memory is bounded by the stream's "
        "overlap width), so long runs can be verified while they "
        "happen (--follow).  A stream cut before "
        "its end marker yields a PARTIAL verdict carrying the last "
        "verified frontier.  Exit codes: 0 verified clean, 1 a "
        "violation was proven, 2 partial/undecided or a usage error.",
    )
    parser.add_argument(
        "log", nargs="?", metavar="LOG",
        help="JSONL event-log file, or '-' to read stdin",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="keep polling at EOF until the end marker arrives (watch "
        "a log another process is still writing)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="with --follow: give up (PARTIAL) after this long with no "
        "new bytes (default: wait forever)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="NAME",
        help="check against a named fastlin spec (linearizability "
        "only) instead of rebuilding the stress validator from the "
        "log's hello metadata",
    )
    parser.add_argument(
        "--spec-params", default=None, metavar="JSON",
        help="JSON object of parameters for --spec",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="closure-node budget per accounting window (default: the "
        "fastlin default)",
    )
    parser.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="events per budget-accounting window (default: the log's "
        "hello metadata, else streamlin's default)",
    )
    parser.add_argument(
        "--progress", type=int, default=0, metavar="N",
        help="print rolling progress (frontier, residency) every N "
        "events to stderr",
    )
    OutputOptions.add_to_parser(
        parser,
        include_resume=False,
        out_help="append one canonical JSONL record of the served "
        "verdict to FILE (the stress --out convention)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-contained CI check: run a small seeded stress run "
        "into a temporary event log, serve it, and assert the verdict "
        "matches the batch oracle on the buffered history",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return _serve_smoke()
    if not args.log:
        parser.error("an event LOG is required (or --smoke)")
    if args.spec_params and not args.spec:
        parser.error("--spec-params requires --spec")
    try:
        spec_params = (
            json.loads(args.spec_params) if args.spec_params else None
        )
    except json.JSONDecodeError as exc:
        print(f"serve: bad --spec-params: {exc}", file=sys.stderr)
        return 2

    from repro.analysis.fastlin import DEFAULT_MAX_NODES

    def progress(snapshot):
        print(
            f"serve [{snapshot.get('events_seen', 0)} events] "
            f"frontier={snapshot.get('frontier_index')} "
            f"resident={snapshot.get('resident_ops')} "
            f"retired={snapshot.get('ops_retired')}",
            file=sys.stderr, flush=True,
        )

    try:
        server = VerdictServer(
            spec=args.spec,
            spec_params=spec_params,
            max_nodes=(
                args.max_nodes if args.max_nodes is not None
                else DEFAULT_MAX_NODES
            ),
            window=args.window,
            progress_every=args.progress,
            progress=progress if args.progress else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        if args.log == "-":
            outcome = serve_lines(server, sys.stdin)
        else:
            outcome = serve_file(
                server, args.log,
                follow=args.follow, idle_timeout=args.idle_timeout,
            )
    except OSError as exc:
        print(f"serve: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"serve: invalid event log: {exc}", file=sys.stderr)
        return 2
    print(outcome.render())
    if args.out:
        from repro.engine.engine import encode_record

        record = {
            "kind": "serve",
            "status": outcome.status,
            "lin_ok": outcome.lin_ok,
            "audit_ok": outcome.audit_ok,
            "clean_end": outcome.clean_end,
            "meta": outcome.meta,
            "stream": outcome.stream,
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(encode_record(record) + "\n")
        print(f"  record appended: {args.out}")
    return outcome.exit_code


def _serve_smoke() -> int:
    """Differential CI smoke: one stress run, served log vs batch
    oracle on the buffered history — verdicts must agree."""
    import os
    import tempfile
    from functools import partial

    from repro.analysis.audit_checks import check_audit_exactness
    from repro.analysis.fastlin import check_history as batch_check
    from repro.analysis.specs import stream_register_spec
    from repro.rt.serve import VerdictServer, serve_file
    from repro.rt.stress import (
        StressTap, _build, build_stress_register, stress_meta,
    )

    fd, path = tempfile.mkstemp(prefix="repro-serve-smoke-", suffix=".jsonl")
    os.close(fd)
    try:
        meta = stress_meta("register", 2, 1, 1, seed=0)
        history = _build(meta, 8, tap=partial(StressTap, meta, path)).run()

        batch = batch_check(
            history.operations(), stream_register_spec("v0")
        )
        # A replica of the run's register: same R name and decode hook.
        audit_violations = check_audit_exactness(
            history, build_stress_register("register", 2, 1, 0)
        )
        outcome = serve_file(VerdictServer(), path)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass

    print(outcome.render())
    print(
        f"  batch oracle  : lin={batch.status} "
        f"audit={'ok' if not audit_violations else 'FAIL'} "
        f"({len(history.operations())} ops buffered)"
    )
    lin_match = outcome.status == batch.status
    audit_match = outcome.audit_ok == (not audit_violations)
    match = lin_match and audit_match and outcome.clean_end
    print(
        f"  [{'PASS' if match else 'FAIL'}] served verdict matches the "
        "batch oracle"
    )
    if not match:
        return 1
    return outcome.exit_code


def _lin(argv) -> int:
    """The ``lin`` subcommand: one ``lin`` campaign section, one point
    per recorded history (field profiling)."""
    import argparse
    import json

    from repro.analysis.fastlin import DEFAULT_MAX_NODES, spec_names
    from repro.campaign import (
        EngineOptions,
        OutputOptions,
        Section,
        SpecError,
        executor_for,
        run_section,
    )
    from repro.engine.aggregate import EXIT_CODES
    from repro.harness.tables import render_table

    parser = argparse.ArgumentParser(
        prog="python -m repro lin",
        description="Check recorded histories from a JSONL file against "
        "a named sequential specification with the fastlin checker, "
        "printing per-history verdict and nodes explored.  Each input "
        "line is either a JSON array of operation payloads "
        "(repro.analysis.fastlin.op_to_payload) or an object "
        "{\"history\": [...], \"spec\": ..., \"spec_params\": {...}}, "
        "and becomes one point of a 'lin' campaign section.  Exit "
        "codes: 0 all linearizable, 1 a history is not linearizable, "
        "2 undecided (node budget) or a usage/input error (the "
        "argparse and repro-check convention).",
    )
    parser.add_argument(
        "history", nargs="?", metavar="FILE",
        help="JSONL history file (one history per line)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="NAME",
        help="named spec (see --list-specs); overrides per-record specs "
        "(default: per-record, falling back to 'register')",
    )
    parser.add_argument(
        "--spec-params", default=None, metavar="JSON",
        help="JSON object of parameters for --spec "
        "(e.g. '{\"initial\": \"v0\"}')",
    )
    parser.add_argument(
        "--list-specs", action="store_true",
        help="list registered spec names and exit",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=DEFAULT_MAX_NODES, metavar="N",
        help="search-node budget per history; exhausting it yields an "
        f"UNDECIDED verdict and exit code 2 (default: {DEFAULT_MAX_NODES})",
    )
    EngineOptions.add_to_parser(
        parser,
        default=1,
        help="worker processes (default: 1 = serial; 0 = one per CPU)",
    )
    OutputOptions.add_to_parser(
        parser,
        out_help="JSONL checkpoint: one canonical verdict record per "
        "history; rerunning with the same file resumes an interrupted "
        "batch",
    )
    args = parser.parse_args(argv)

    if args.list_specs:
        for name in spec_names():
            print(name)
        return 0
    if not args.history:
        parser.error("a history FILE is required (or --list-specs)")
    if args.spec_params and not args.spec:
        parser.error("--spec-params requires --spec")

    try:
        spec_params = (
            json.loads(args.spec_params) if args.spec_params else None
        )
    except json.JSONDecodeError as exc:
        print(f"lin: bad --spec-params: {exc}", file=sys.stderr)
        return 2
    histories = []
    try:
        with open(args.history, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if line.strip():
                    histories.append(json.loads(line))
    except OSError as exc:
        print(f"lin: cannot read {args.history}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"lin: {args.history}:{lineno}: bad JSON: {exc}",
            file=sys.stderr,
        )
        return 2

    params = {"max_nodes": args.max_nodes}
    if args.spec:
        params["spec"] = args.spec
    if spec_params is not None:
        params["spec_params"] = spec_params
    output = OutputOptions.from_args(args)
    try:
        outcome = run_section(
            Section("lin", "lin", params=params).axis("history", *histories),
            workers=args.workers,
            checkpoint=output.out,
            resume=output.resume,
        )
    except SpecError as exc:
        print(f"lin: {exc}", file=sys.stderr)
        return 2

    lin = executor_for("lin")
    rows = []
    for record in outcome.records:
        payload = record["payload"]
        rows.append({
            "history": record["index"],
            "spec": lin.resolve(record["params"]["point"])[1],
            "ops": payload["ops"],
            "partitions": payload["partitions"],
            "nodes": payload["explored"],
            "verdict": payload["status"].upper(),
        })
    print(render_table(rows))
    counts = outcome.counts
    print()
    print(
        f"  [{outcome.verdict}] {len(rows)} histories "
        f"({outcome.executed} run, {outcome.skipped} resumed), "
        f"{sum(r['nodes'] for r in rows)} nodes explored in "
        f"{outcome.elapsed:.3f}s with {outcome.workers} worker(s); "
        f"{counts['FAIL']} not linearizable, "
        f"{counts['PARTIAL']} undecided"
    )
    if outcome.checkpoint:
        print(f"  records: {outcome.checkpoint}")
    return EXIT_CODES[outcome.verdict]


def _campaign_smoke_spec():
    """The built-in CI campaign: one check + one fuzz section, clean."""
    from repro.campaign import CampaignSpec

    spec = CampaignSpec(name="smoke")
    spec.section(
        "mc", "check", max_executions=50_000,
    ).axis("scenario", "alg1-w1-r1")
    spec.section(
        "fuzzing", "fuzz", seeds=[0, 1], schedules=8, batch=8,
    ).axis("target", "alg1-w1-r1")
    return spec


def _campaign_example_spec():
    """The worked template ``repro campaign example`` prints (the one
    DESIGN.md section 12 and the README walk through)."""
    from repro.campaign import CampaignSpec

    spec = CampaignSpec(name="nightly", root_seed=0)
    spec.section(
        "mc", "check", max_executions=100_000,
    ).axis("scenario", "alg1-w1-r1", "alg2-w1-r1")
    chaos = spec.section(
        "chaos-stress", "stress",
        seeds=[0, 1], threads=3, ops=8, faults="crash,delay",
    )
    chaos.axis("object", "register", "max")
    chaos.axis("runtime", "thread", "process")
    chaos.axis("fault_rate", 0, 150)
    spec.section(
        "fuzzing", "fuzz", seeds=2, schedules=32, batch=16,
    ).axis("target", "alg1-w2", "alg1-w1-a1")
    return spec


def _campaign(argv) -> int:
    """The ``campaign`` subcommand: declarative multi-section campaigns
    (``repro.campaign``) compiled onto the execution engine."""
    import argparse

    from repro.campaign import (
        EngineOptions,
        OutputOptions,
        SpecError,
        compile_spec,
        dumps_spec,
        load_spec,
        render_outcome,
        run_spec,
        section_checkpoint,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run a declarative campaign spec: ordered sections, "
        "each crossing axes (scenarios x runtimes x fault plans x "
        "seeds) into concrete points executed through the engine's "
        "byte-identical resumable JSONL contract, one checkpoint file "
        "per section.  Exit codes: 0 every point PASS, 1 any point "
        "FAIL, 2 no failures but at least one PARTIAL (or a usage "
        "error).  See DESIGN.md section 12.",
    )
    actions = parser.add_subparsers(dest="action", metavar="ACTION")

    run_parser = actions.add_parser(
        "run", help="execute a spec (TOML/JSON file, or --smoke)",
    )
    run_parser.add_argument(
        "spec", nargs="?", metavar="SPEC",
        help="campaign spec file (.toml, or .json for Python < 3.11)",
    )
    EngineOptions.add_to_parser(
        run_parser,
        default=None,
        help="worker processes per section (default: the spec's own "
        "workers value; 0 = one per CPU; 1 = serial; sections whose "
        "executor is serial-only always run with 1)",
    )
    OutputOptions.add_to_parser(
        run_parser,
        out_help="checkpoint base path: each section writes "
        "OUT.<section>.jsonl; rerunning resumes finished sections "
        "instantly and interrupted sections mid-file",
    )
    run_parser.add_argument(
        "--only", nargs="+", default=None, metavar="SECTION",
        help="run only the named sections (in spec order)",
    )
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="run the built-in CI campaign (one check section + one "
        "two-seed fuzz section) instead of a spec file",
    )

    show_parser = actions.add_parser(
        "show", help="validate and summarize a spec without running it",
    )
    show_parser.add_argument("spec", metavar="SPEC")

    actions.add_parser(
        "example", help="print a worked spec.toml template to stdout",
    )

    args = parser.parse_args(argv)

    if args.action == "example":
        sys.stdout.write(dumps_spec(_campaign_example_spec()))
        return 0

    if args.action == "show":
        try:
            spec = load_spec(args.spec)
            compiled = compile_spec(spec)
        except SpecError as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 2
        print(f"campaign {spec.name!r} (root_seed={spec.root_seed}):")
        for section in spec.sections:
            axes = " x ".join(
                f"{axis.name}[{len(axis.values)}]"
                for axis in section.axes
            ) or "(no axes)"
            print(
                f"  [{section.kind}] {section.name}: {axes} -> "
                f"{len(compiled[section.name])} points"
            )
        print(f"  total: {sum(len(t) for t in compiled.values())} points")
        return 0

    if args.action != "run":
        parser.error("an ACTION is required (run, show or example)")
    if args.smoke and args.spec:
        print(
            "--smoke runs the built-in campaign and cannot be combined "
            "with a SPEC file",
            file=sys.stderr,
        )
        return 2
    if not args.smoke and not args.spec:
        run_parser.error("a SPEC file is required (or --smoke)")

    output = OutputOptions.from_args(args)
    try:
        spec = (
            _campaign_smoke_spec() if args.smoke else load_spec(args.spec)
        )

        def progress(section, done, total):
            if done % 5 == 0 or done == total:
                print(
                    f"campaign [{section} {done}/{total}]",
                    file=sys.stderr, flush=True,
                )

        outcome = run_spec(
            spec,
            workers=args.workers,
            out=output.out,
            resume=output.resume,
            only=args.only,
            progress=progress,
        )
    except SpecError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    print(render_outcome(outcome))
    if output.out:
        for section in outcome.sections:
            print(f"  records: {section_checkpoint(output.out, section.name)}")
    return outcome.exit_code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        return _overview()
    command, *rest = argv
    if command in ("version", "--version"):
        from repro import __version__

        print(__version__)
        return 0
    if command == "experiments":
        from repro.harness.experiments import main as experiments_main

        return experiments_main(rest)
    if command == "campaign":
        return _campaign(rest)
    if command == "sweep":
        return _sweep(rest)
    if command == "check":
        return _check(rest)
    if command == "fuzz":
        return _fuzz(rest)
    if command == "stress":
        return _stress(rest)
    if command == "lin":
        return _lin(rest)
    if command == "serve":
        return _serve(rest)
    if command == "attacks":
        import runpy
        import pathlib

        demo = (
            pathlib.Path(__file__).resolve().parents[2]
            / "examples"
            / "curious_reader_demo.py"
        )
        if demo.exists():
            runpy.run_path(str(demo), run_name="__main__")
            return 0
        print("examples/curious_reader_demo.py not found", file=sys.stderr)
        return 1
    print(f"unknown command {command!r}", file=sys.stderr)
    _overview()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
