"""The CLI-wide exit-code and ``--out`` contract.

Every subcommand speaks the same three-valued exit language:

- ``0`` -- the run completed and the property held (or, under
  ``--expect-violation``, the expected violation appeared);
- ``1`` -- the run completed and found a violation / mismatch;
- ``2`` -- inconclusive (budget expired, verdict undecided) or a
  usage/input error (argparse's own convention).

And two ``--out`` dialects, by design:

- engine-checkpoint subcommands (sweep, check, fuzz, lin, campaign)
  treat ``--out`` as a resumable canonical JSONL checkpoint --
  rerunning with the same file resumes and leaves bytes unchanged;
- single-verdict subcommands (stress, serve) append one record per
  invocation -- rerunning grows the file.
"""

import json

import pytest

from repro.__main__ import main


def run_main(argv):
    """argparse usage errors raise SystemExit(2); fold them into the
    return-code contract the way a shell would."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def history_files(tmp_path_factory):
    """Three lin input files: linearizable, non-linearizable, and one
    bulky enough that a starved node budget leaves it undecided."""
    from repro.analysis.fastlin import op_to_payload
    from repro.sim.history import OperationRecord

    def op(pid, op_id, name, args, invoke, respond, result=None):
        return OperationRecord(
            pid=pid, op_id=op_id, name=name, args=args,
            invoke_index=invoke, response_index=respond, result=result,
        )

    root = tmp_path_factory.mktemp("histories")

    ok = root / "ok.jsonl"
    ok.write_text(json.dumps([
        op_to_payload(op("p0", 0, "write", (1,), 0, 1)),
        op_to_payload(op("p1", 0, "read", (), 2, 3, result=1)),
    ]) + "\n", encoding="utf-8")

    bad = root / "bad.jsonl"
    bad.write_text(json.dumps([
        op_to_payload(op("p0", 0, "write", (1,), 0, 1)),
        op_to_payload(op("p1", 0, "read", (), 2, 3, result=2)),
    ]) + "\n", encoding="utf-8")

    # Fully concurrent writes and reads: many interleavings to try,
    # so --max-nodes 1 exhausts before any verdict.
    wide = [op(f"p{i}", 0, "write", (i,), 0, 10) for i in range(4)]
    wide += [op(f"q{i}", 0, "read", (), 0, 10, result=i)
             for i in range(4)]
    undecided = root / "undecided.jsonl"
    undecided.write_text(
        json.dumps([op_to_payload(o) for o in wide]) + "\n",
        encoding="utf-8",
    )
    # An ok history, then an auditable-register history read by a pid
    # its reader_index does not name: the spec cannot apply it.
    unindexed = root / "unindexed.jsonl"
    unindexed.write_text(ok.read_text(encoding="utf-8") + json.dumps({
        "history": [op_to_payload(op("r1", 0, "read", (), 0, 1, "v0"))],
        "spec": "auditable_register",
        "spec_params": {"initial": "v0", "reader_index": {"r0": 0}},
    }) + "\n", encoding="utf-8")
    return {"ok": str(ok), "bad": str(bad), "undecided": str(undecided),
            "unindexed": str(unindexed)}


# One row per (subcommand, situation).  Each argv is chosen to be the
# cheapest invocation that exercises that exit path.
CONTRACT = [
    # -- exit 0: completed clean ------------------------------------
    ("sweep clean", ["sweep", "--smoke"], 0),
    ("check clean", ["check", "--smoke"], 0),
    ("fuzz expected violation",
     ["fuzz", "--smoke", "--expect-violation"], 0),
    ("stress clean",
     ["stress", "--threads", "3", "--ops", "6", "--no-latency"], 0),
    ("campaign clean", ["campaign", "run", "--smoke"], 0),
    ("check compare clean",
     ["check", "--scenario", "alg1-w1-r1", "--compare"], 0),
    # -- exit 1: completed, violation found -------------------------
    ("check violation",
     ["check", "--scenario", "buggy-counter"], 1),
    ("fuzz violation", ["fuzz", "--smoke"], 1),
    ("fuzz missing expected violation",
     ["fuzz", "--target", "alg1-w1-r1", "--schedules", "8",
      "--batch", "8", "--expect-violation"], 1),
    # -- exit 2: inconclusive (budget / undecided) ------------------
    ("check budget partial",
     ["check", "--scenario", "alg1-w2", "--max-executions", "5"], 2),
    ("fuzz step budget partial",
     ["fuzz", "--target", "alg1-w1-r1", "--schedules", "4",
      "--batch", "4", "--max-steps", "3"], 2),
    # -- exit 2: usage / input errors -------------------------------
    ("sweep bad flag", ["sweep", "--no-such-flag"], 2),
    ("sweep zero seeds",
     ["sweep", "--seeds", "0", "--readers", "1", "--writers", "1"], 2),
    ("sweep zero readers",
     ["sweep", "--readers", "0", "--writers", "1", "--seeds", "1"], 2),
    ("sweep negative readers",
     ["sweep", "--readers", "-1", "--writers", "1", "--seeds", "1"], 2),
    ("check unknown scenario", ["check", "--scenario", "wat"], 2),
    ("check smoke plus scenario",
     ["check", "--smoke", "--scenario", "alg1-w1-r1"], 2),
    ("fuzz unknown target", ["fuzz", "--target", "wat"], 2),
    ("fuzz missing replay file",
     ["fuzz", "--replay", "/nonexistent/trace.json"], 2),
    ("stress zero ops", ["stress", "--ops", "0", "--threads", "2"], 2),
    ("stress zero duration",
     ["stress", "--ops", "5", "--duration", "0"], 2),
    ("stress negative online duration",
     ["stress", "--duration", "-1", "--online"], 2),
    ("stress print-spec of a duration run",
     ["stress", "--duration", "1", "--print-spec"], 2),
    ("stress unsupported fault family",
     ["stress", "--runtime", "thread", "--faults", "partition",
      "--ops", "4"], 2),
    ("serve missing file", ["serve", "/nonexistent/events.jsonl"], 2),
    ("lin missing file", ["lin", "/nonexistent/histories.jsonl"], 2),
    ("sweep negative workers", ["sweep", "--smoke", "--workers", "-1"], 2),
    ("campaign missing spec",
     ["campaign", "run", "/nonexistent/spec.toml"], 2),
    ("campaign no spec no smoke", ["campaign", "run"], 2),
]


@pytest.mark.parametrize(
    "argv,expected",
    [row[1:] for row in CONTRACT],
    ids=[row[0] for row in CONTRACT],
)
def test_exit_code_contract(argv, expected, capsys):
    assert run_main(argv) == expected


@pytest.mark.parametrize("argv,labels", [
    (["sweep", "--smoke"], ["num_readers=1,num_writers=1"]),
    (["sweep", "--object", "snapshot", "--seeds", "1", "--workers", "1"],
     ["substrate=afek", "substrate=atomic"]),
], ids=["register", "snapshot"])
def test_sweep_rows_are_labelled_axis_equals_value(argv, labels, capsys):
    """One table row per grid point, labelled ``axis=value,...`` in the
    section's axis order."""
    assert run_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[2:lines.index("")]  # below the header and its rule
    assert [row.split()[0] for row in rows] == labels


def test_stress_hang_exits_2_naming_the_stuck_pids(monkeypatch, capsys):
    """A watchdog timeout is inconclusive, not a violation: exit 2, and
    stderr names the stuck pid instead of a traceback."""
    import threading

    import repro.rt
    from repro.rt import ThreadRuntime
    from repro.sim.process import Op

    release = threading.Event()

    def stuck():
        release.wait()
        return None
        yield  # pragma: no cover - makes this a generator function

    def hung_run_stress(**kwargs):
        rt = ThreadRuntime(join_watchdog=0.2)
        rt.add_program("w0", [Op("stuck", stuck)])
        rt.run()

    monkeypatch.setattr(repro.rt, "run_stress", hung_run_stress)
    try:
        assert run_main(["stress", "--threads", "2", "--ops", "2"]) == 2
    finally:
        release.set()  # let the daemon thread exit
    err = capsys.readouterr().err
    assert "['w0']" in err and "Traceback" not in err


def test_lin_negative_workers_is_a_usage_error(history_files, capsys):
    """On a valid input, too: argparse refuses it before any run."""
    assert run_main(["lin", history_files["ok"], "--workers", "-2"]) == 2
    assert "--workers" in capsys.readouterr().err


class TestLinExitCodes:
    def test_linearizable_is_0(self, history_files, capsys):
        assert run_main(["lin", history_files["ok"]]) == 0

    def test_violation_is_1(self, history_files, capsys):
        assert run_main(["lin", history_files["bad"]]) == 1

    def test_undecided_is_2(self, history_files, capsys):
        assert run_main([
            "lin", history_files["undecided"], "--max-nodes", "1",
        ]) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_history_the_spec_cannot_apply_is_an_input_error(
        self, history_files, workers, capsys
    ):
        assert run_main([
            "lin", history_files["unindexed"], "--workers", workers,
        ]) == 2
        err = capsys.readouterr().err
        assert "point 1 of section 'lin'" in err
        assert "KeyError" in err and "reader_index" in err
        assert "Traceback" not in err

    def test_histories_as_recorded_pass(self, tmp_path, capsys):
        """60 E2 auditable-register histories as recorded -- reads
        carry no args, the spec sees each reader's pid -- in one lin
        section: every point is linearizable."""
        from repro.analysis.fastlin import op_to_payload
        from repro.workloads.generators import (
            RegisterWorkload,
            build_register_system,
        )

        shapes = [
            dict(num_readers=1, num_writers=1, num_auditors=1,
                 reads_per_reader=3, writes_per_writer=3,
                 audits_per_auditor=2),
            dict(num_readers=2, num_writers=2, num_auditors=1,
                 reads_per_reader=3, writes_per_writer=2,
                 audits_per_auditor=2),
            dict(num_readers=3, num_writers=2, num_auditors=1,
                 reads_per_reader=2, writes_per_writer=2,
                 audits_per_auditor=1),
        ]
        lines = []
        for shape in shapes:
            for seed in range(20):
                built = build_register_system(
                    RegisterWorkload(seed=seed, **shape)
                )
                ops = built.run().operations()
                lines.append(json.dumps({
                    "history": [op_to_payload(o) for o in ops],
                    "spec": "auditable_register",
                    "spec_params": {"initial": "v0",
                                    "reader_index": built.reader_index},
                }))
        path = tmp_path / "e2.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_main(["lin", str(path), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] 60 histories" in out
        assert "0 not linearizable, 0 undecided" in out

    def test_campaign_lin_section_the_spec_cannot_apply_is_2(
        self, history_files, tmp_path, capsys
    ):
        with open(history_files["unindexed"], encoding="utf-8") as handle:
            histories = [json.loads(line) for line in handle]
        spec = tmp_path / "lin.json"
        spec.write_text(json.dumps({"sections": [
            {"kind": "lin", "axes": {"history": histories}},
        ]}), encoding="utf-8")
        assert run_main(["campaign", "run", str(spec)]) == 2
        assert "point 1 of section" in capsys.readouterr().err


class TestOutSemantics:
    """Checkpoint subcommands leave --out byte-stable on rerun;
    append subcommands grow it by one record per invocation."""

    @pytest.mark.parametrize("argv_fn", [
        lambda out: ["sweep", "--smoke", "--out", out],
        lambda out: ["fuzz", "--target", "alg1-w1-r1", "--schedules",
                     "8", "--batch", "8", "--out", out],
        lambda out: ["campaign", "run", "--smoke", "--out", out],
    ], ids=["sweep", "fuzz", "campaign"])
    def test_checkpoint_out_is_byte_stable(
        self, argv_fn, tmp_path, capsys
    ):
        out = str(tmp_path / "records.jsonl")
        assert run_main(argv_fn(out)) == 0
        import glob

        paths = sorted(glob.glob(out + "*"))
        assert paths
        before = {p: open(p, "rb").read() for p in paths}
        assert run_main(argv_fn(out)) == 0
        assert {p: open(p, "rb").read() for p in paths} == before

    def test_lin_checkpoint_out_is_byte_stable(
        self, history_files, tmp_path, capsys
    ):
        out = str(tmp_path / "verdicts.jsonl")
        argv = ["lin", history_files["ok"], "--out", out]
        assert run_main(argv) == 0
        before = open(out, "rb").read()
        assert run_main(argv) == 0
        assert open(out, "rb").read() == before

    def test_stress_out_appends(self, tmp_path, capsys):
        out = str(tmp_path / "stress.jsonl")
        argv = ["stress", "--threads", "3", "--ops", "6",
                "--no-latency", "--out", out]
        assert run_main(argv) == 0
        assert len(open(out, "rb").read().splitlines()) == 1
        assert run_main(argv) == 0
        assert len(open(out, "rb").read().splitlines()) == 2

    def test_serve_out_appends(self, tmp_path, capsys):
        from repro.rt import run_stress

        events = str(tmp_path / "events.jsonl")
        run_stress("register", threads=3, ops=6, seed=3,
                   event_log=events, record_latency=False)
        out = str(tmp_path / "verdict.jsonl")
        argv = ["serve", events, "--out", out]
        assert run_main(argv) == 0
        lines = open(out, "rb").read().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "serve"
        assert record["status"] == "ok"
        assert run_main(argv) == 0
        assert len(open(out, "rb").read().splitlines()) == 2


class TestCheckCompare:
    """--compare runs each scenario raw and reduced and pairs the two."""

    ARGV = ["check", "--scenario", "alg1-w1-r1", "--compare"]

    def table(self, capsys):
        lines = capsys.readouterr().out.splitlines()
        return lines[0].split(), lines[2].split()

    def test_table_keeps_baseline_and_reduction_columns(self, capsys):
        assert run_main(self.ARGV) == 0
        header, row = self.table(capsys)
        assert header == [
            "scenario", "explored", "states", "violations", "baseline",
            "reduction", "verdict",
        ]
        cells = dict(zip(header, row))
        assert int(cells["baseline"]) > int(cells["explored"])
        assert cells["reduction"].endswith("x")
        assert cells["verdict"] == "PASS"

    def test_budget_cut_baseline_is_partial_not_mismatch(self, capsys):
        # The raw enumeration (320 executions) overruns the budget;
        # the reduced one (16) does not.
        assert run_main(self.ARGV + ["--max-executions", "100"]) == 2
        header, row = self.table(capsys)
        cells = dict(zip(header, row))
        assert cells["baseline"] == "101+"
        assert cells["reduction"] == "-"
        assert cells["verdict"] == "PARTIAL"

    def test_checkpointed_compare_writes_one_file(self, tmp_path, capsys):
        out = tmp_path / "mc.jsonl"
        argv = self.ARGV + ["--out", str(out)]
        assert run_main(argv) == 0
        first = self.table(capsys)
        assert dict(zip(*first))["verdict"] == "PASS"
        assert [path.name for path in tmp_path.iterdir()] == ["mc.jsonl"]
        before = out.read_bytes()
        legs = [json.loads(line)["params"]["point"]["reduce"]
                for line in before.splitlines()]
        assert legs == [False, True]
        assert run_main(argv) == 0
        assert self.table(capsys) == first
        assert out.read_bytes() == before

    def test_truncated_checkpoint_reruns_exactly_the_lost_point(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.campaign import executors

        out = tmp_path / "mc.jsonl"
        argv = ["check", "--scenario", "alg1-w1-r1", "alg1-silent-read",
                "--out", str(out)]
        assert run_main(argv) == 0
        first = capsys.readouterr().out
        lines = out.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2
        out.write_bytes(lines[0])
        executed = []
        execute = executors.CheckExecutor.execute

        def counted(self, seed, params):
            executed.append(params["scenario"])
            return execute(self, seed, params)

        monkeypatch.setattr(executors.CheckExecutor, "execute", counted)
        assert run_main(argv) == 0
        assert executed == ["alg1-silent-read"]
        assert capsys.readouterr().out == first
        assert out.read_bytes().splitlines(keepends=True) == lines
