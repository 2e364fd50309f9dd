"""The streaming verification service: ``repro serve``.

A served event log must reach the same verdict as the batch oracles on
the buffered history, and every way a stream can die — truncated file,
torn trailing line, corrupt tail, missing header, a producer that
crashes mid-run on the process runtime's fault seam — must yield a
PARTIAL (or proven-FAIL) verdict carrying the last verified frontier,
never a hang and never a bogus OK.
"""

import pytest

from repro.analysis.fastlin import LIN_OK, check_history
from repro.analysis.specs import stream_register_spec
from repro.analysis.streamlin import LIN_PARTIAL
from repro.faults import ScriptedFaultPlan
from repro.rt.serve import (
    ServeOutcome,
    VerdictServer,
    serve_file,
    serve_lines,
)
from repro.rt.stress import STRESS_OBJECTS, run_stress, validator_from_meta
from repro.sim.event_log import load_event_log, parse_line
from repro.sim.scheduler import CrashDecision


@pytest.fixture(scope="module")
def register_log(tmp_path_factory):
    """One complete stress log (thread runtime, online validation on,
    so the producer's own verdict is available for comparison)."""
    path = str(tmp_path_factory.mktemp("serve") / "register.jsonl")
    report = run_stress(
        "register", threads=4, ops=10, seed=3,
        online=True, event_log=path,
    )
    return path, report


@pytest.fixture(scope="module", params=STRESS_OBJECTS)
def stress_log(request, tmp_path_factory):
    """One complete online stress log per stress object: the snapshot
    and naive validators need the roster's indices, rebuilt from the
    hello line alone."""
    path = str(tmp_path_factory.mktemp("serve") / f"{request.param}.jsonl")
    report = run_stress(
        request.param, threads=4, ops=10, seed=3,
        online=True, event_log=path,
    )
    return path, report


def read_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.readlines()


class TestRoundtrip:
    def test_served_verdict_matches_the_producer(self, register_log):
        path, report = register_log
        outcome = serve_file(VerdictServer(), path)
        assert outcome.clean_end
        assert outcome.status == report.stream["status"]
        assert outcome.lin_ok == report.lin_ok
        assert outcome.audit_ok == report.audit_ok
        assert outcome.exit_code == (0 if report.ok else 1)
        assert outcome.stream["ops_completed"] == report.ops_completed
        assert outcome.stream == report.stream

    def test_served_stream_equals_the_producers(self, stress_log):
        from repro.campaign.executors import StressExecutor
        from repro.engine.aggregate import EXIT_CODES

        path, report = stress_log
        outcome = serve_file(VerdictServer(), path)
        assert outcome.clean_end
        assert outcome.meta["object"] == report.object
        assert report.lin_status == "ok" and report.audit_ok is not False
        assert outcome.stream == report.stream
        assert (outcome.lin_ok, outcome.audit_ok) == (
            report.lin_ok, report.audit_ok
        )
        assert outcome.exit_code == EXIT_CODES[StressExecutor.judge(report)]

    def test_served_verdict_matches_the_batch_oracle(self, register_log):
        path, _ = register_log
        events, clean_end, _meta = load_event_log(path)
        assert clean_end
        outcome = serve_file(VerdictServer(), path)
        # Fold the decoded events into operation records independently
        # and batch-check them: serve must reach the same status.
        batch = check_history(
            _operations_from(events), stream_register_spec("v0")
        )
        assert outcome.status == batch.status

    def test_spec_mode_checks_linearizability_only(self, register_log):
        path, report = register_log
        outcome = serve_file(
            VerdictServer(spec="stream_register"), path
        )
        assert outcome.lin_ok == report.lin_ok
        assert outcome.audit_ok is None

    def test_render_mentions_the_frontier(self, register_log):
        path, _ = register_log
        outcome = serve_file(VerdictServer(), path)
        text = outcome.render()
        assert "frontier" in text
        assert "clean end" in text

    def test_reports_the_audit_oracles_residency(self, register_log):
        path, report = register_log
        outcome = serve_file(VerdictServer(), path)
        resident = outcome.stream["audit_resident_pairs"]
        assert resident == report.stream["audit_resident_pairs"]
        assert resident > 0
        assert f"{resident} pairs resident" in outcome.render()

    def test_audits_that_all_answer_empty_are_counted(self, tmp_path):
        """With no reader, every audit exactly answers the empty set:
        the check passes on no pairs, and both reports say so."""
        path = str(tmp_path / "no-readers.jsonl")
        report = run_stress(
            "register", readers=0, writers=1, auditors=1, ops=5,
            event_log=path,
        )
        outcome = serve_file(VerdictServer(), path)
        assert report.audit_ok is outcome.audit_ok is True
        assert outcome.stream["audits_checked"] == 5
        assert outcome.stream["audits_nonempty"] == 0
        note = (
            "[PASS] audit exactness "
            "(5 audits, 0 non-empty, 0 pairs resident)"
        )
        assert note in report.render()
        assert note in outcome.render()

    def test_validator_from_meta_rejects_foreign_logs(self):
        with pytest.raises(ValueError, match="--spec"):
            validator_from_meta({"kind": "unknown"})


def _operations_from(events):
    """Fold decoded invocation/response events into operation records
    the batch checker accepts (the server does this internally; here we
    do it independently so the comparison is honest)."""
    from repro.sim.history import OperationRecord

    records = {}
    ordered = []
    for event in events:
        name = type(event).__name__
        if name == "Invocation":
            record = OperationRecord(
                pid=event.pid, op_id=event.op_id, name=event.op_name,
                args=tuple(event.args), invoke_index=event.index,
            )
            records[(event.pid, event.op_id)] = record
            ordered.append(record)
        elif name == "Response":
            record = records.get((event.pid, event.op_id))
            if record is not None:
                record.response_index = event.index
                record.result = event.result
    return ordered


class TestTruncation:
    def test_missing_end_marker_is_partial(self, register_log, tmp_path):
        path, _ = register_log
        lines = read_lines(path)
        assert '"end"' in lines[-1]
        cut = tmp_path / "noend.jsonl"
        cut.write_text("".join(lines[:-1]))
        outcome = serve_file(VerdictServer(), str(cut))
        assert not outcome.clean_end
        assert outcome.status in (LIN_PARTIAL, "fail")
        assert outcome.exit_code != 0
        assert "TRUNCATED" in outcome.render()

    def test_any_prefix_is_partial_never_bogus_ok(
        self, register_log, tmp_path
    ):
        """Cut the stream at every tenth line: the verdict must be
        PARTIAL (or a genuinely proven FAIL), with a frontier no later
        than the cut."""
        path, _ = register_log
        lines = read_lines(path)
        for cut_at in range(1, len(lines) - 1, max(1, len(lines) // 10)):
            cut = tmp_path / f"cut{cut_at}.jsonl"
            cut.write_text("".join(lines[:cut_at]))
            outcome = serve_file(VerdictServer(), str(cut))
            assert not outcome.clean_end
            assert outcome.status != LIN_OK, cut_at
            assert outcome.exit_code != 0
            frontier = outcome.stream.get("frontier_index")
            if frontier is not None:
                assert frontier < cut_at

    def test_torn_trailing_line_is_held_back(self, register_log, tmp_path):
        path, _ = register_log
        lines = read_lines(path)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:5]) + lines[5][: len(lines[5]) // 2])
        outcome = serve_file(VerdictServer(), str(torn))
        assert not outcome.clean_end
        assert outcome.status != LIN_OK

    def test_corrupt_tail_is_truncation(self, register_log, tmp_path):
        path, _ = register_log
        lines = read_lines(path)
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("".join(lines[:5]) + '{"k": "garbage"}\n')
        outcome = serve_file(VerdictServer(), str(bad))
        assert not outcome.clean_end
        assert outcome.status != LIN_OK

    def test_empty_stream_is_partial(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        outcome = serve_file(VerdictServer(), str(empty))
        assert outcome.status == LIN_PARTIAL
        assert outcome.exit_code == 2

    def test_missing_hello_is_partial_not_a_crash(
        self, register_log, tmp_path
    ):
        """Events with no header: the server cannot build a validator,
        so the stream degrades to PARTIAL (ValueError is truncation)."""
        path, _ = register_log
        lines = [l for l in read_lines(path) if '"hello"' not in l]
        headless = tmp_path / "headless.jsonl"
        headless.write_text("".join(lines))
        outcome = serve_file(VerdictServer(), str(headless))
        assert outcome.status == LIN_PARTIAL
        assert outcome.lin_ok is None

    def test_follow_mode_gives_up_after_idle_timeout(
        self, register_log, tmp_path
    ):
        """A producer that died without the end marker must not hang
        the follower forever."""
        path, _ = register_log
        lines = read_lines(path)
        stalled = tmp_path / "stalled.jsonl"
        stalled.write_text("".join(lines[:-1]))
        outcome = serve_file(
            VerdictServer(), str(stalled),
            follow=True, poll=0.02, idle_timeout=0.2,
        )
        assert not outcome.clean_end
        assert outcome.status != LIN_OK


#: Malformed lines: valid JSON of the wrong shape, and bad JSON.
MALFORMED_LINES = {
    "array": "[]",
    "null": "null",
    "untagged-event": '{"r":{"t":5}}',
    "tuple-of-int": '{"i":9,"k":"res","n":"read","o":0,"p":"r0",'
                    '"r":{"t":5}}',
    "ns-fields-not-dict": '{"i":9,"k":"res","n":"read","o":0,"p":"r0",'
                          '"r":{"ns":{"c":"x.Y","f":5}}}',
    "unhashable-set-member": '{"i":9,"k":"res","n":"audit","o":0,'
                             '"p":"a0","r":{"s":[[1]]}}',
    "empty-tag": '{"a":{},"i":9,"k":"inv","n":"read","o":1,"p":"r0"}',
    "trailing-data": '{"events":3,"k":"end"} {}',
    "torn-json": '{"a":{"t":[]},"i":9,"k":"inv"',
    "bom": '\ufeff{"events":3,"k":"end"}',
}

each_malformed_line = pytest.mark.parametrize(
    "line", list(MALFORMED_LINES.values()), ids=list(MALFORMED_LINES)
)


class TestMalformedLines:
    """A corrupt line is the stream's truncation point: PARTIAL and
    exit 2, never a crash (whose exit 1 would claim a proven
    violation)."""

    @each_malformed_line
    def test_parse_line_raises_value_error(self, line):
        with pytest.raises(ValueError):
            parse_line(line)

    def test_whitespace_around_a_line_is_not_corruption(self, register_log):
        path, _ = register_log
        for line in read_lines(path)[:20]:
            assert parse_line(f" \t{line}") == parse_line(line.strip())

    def _corrupt_log(self, register_log, tmp_path, line):
        path, _ = register_log
        lines = read_lines(path)
        bad = tmp_path / "malformed.jsonl"
        bad.write_text("".join(lines[:6]) + line + "\n" + "".join(lines[6:]))
        return str(bad)

    @each_malformed_line
    def test_serve_file_is_partial(self, register_log, tmp_path, line):
        outcome = serve_file(
            VerdictServer(), self._corrupt_log(register_log, tmp_path, line)
        )
        assert not outcome.clean_end
        assert outcome.status == LIN_PARTIAL
        assert outcome.exit_code == 2

    @each_malformed_line
    def test_cli_exits_2(self, register_log, tmp_path, line, capsys):
        from repro.__main__ import main

        path = self._corrupt_log(register_log, tmp_path, line)
        assert main(["serve", path]) == 2
        assert "PARTIAL" in capsys.readouterr().out

    @each_malformed_line
    def test_load_event_log_stops_cleanly(self, register_log, tmp_path, line):
        events, clean_end, meta = load_event_log(
            self._corrupt_log(register_log, tmp_path, line)
        )
        assert not clean_end
        assert meta.get("kind") == "stress"
        assert len(events) == 5  # the events before the corrupt line


class TestFaultSeam:
    def test_crashed_producer_process_still_verifies(self, tmp_path):
        """A worker crashed by the process runtime's fault seam leaves
        pending ops in the stream; the served verdict must match the
        producer's online verdict, crash events included."""
        path = str(tmp_path / "crashed.jsonl")
        report = run_stress(
            "register", threads=4, ops=6, seed=1, runtime="process",
            online=True, event_log=path,
            faults=ScriptedFaultPlan({7: CrashDecision("w0")}),
        )
        outcome = serve_file(VerdictServer(), path)
        assert outcome.clean_end  # the server closed its log cleanly
        assert outcome.status == report.stream["status"]
        assert outcome.lin_ok == report.lin_ok
        assert outcome.audit_ok == report.audit_ok

    @pytest.mark.parametrize("faults", [
        None, "delay,partition", "crash,partition,recover",
    ])
    @pytest.mark.parametrize("obj", STRESS_OBJECTS)
    def test_server_side_verdict_equals_the_served_log(
        self, tmp_path, obj, faults
    ):
        """The memory server validates the events it records; serving
        the event log it wrote must reach the same verdict, field for
        field."""
        path = str(tmp_path / "events.jsonl")
        report = run_stress(
            obj, threads=4, ops=30, seed=5, runtime="process",
            online=True, event_log=path, faults=faults, fault_rate=200,
        )
        outcome = serve_file(VerdictServer(), path)
        assert outcome.clean_end and report.checks
        assert (report.lin_status, report.lin_ok, report.audit_ok) == (
            outcome.status, outcome.lin_ok, outcome.audit_ok
        )
        assert report.checks == outcome.stream

    def test_truncated_crashed_log_is_partial(self, tmp_path):
        path = str(tmp_path / "crashed2.jsonl")
        run_stress(
            "register", threads=4, ops=6, seed=1, runtime="process",
            online=True, event_log=path,
            faults=ScriptedFaultPlan({5: CrashDecision("r0")}),
        )
        lines = read_lines(path)
        cut = tmp_path / "crashed2_cut.jsonl"
        cut.write_text("".join(lines[: len(lines) // 2]))
        outcome = serve_file(VerdictServer(), str(cut))
        assert not outcome.clean_end
        assert outcome.status != LIN_OK
        assert outcome.exit_code != 0


class TestServerProtocol:
    def test_feed_line_reports_end_of_stream(self, register_log):
        path, _ = register_log
        server = VerdictServer()
        saw_end = False
        for line in read_lines(path):
            if not server.feed_line(line):
                saw_end = True
                break
        assert saw_end and server.clean_end
        assert server.declared_events == server.events

    def test_snapshot_exposes_rolling_progress(self, register_log):
        path, _ = register_log
        server = VerdictServer()
        snapshots = []
        for line in read_lines(path):
            if not server.feed_line(line):
                break
            if server.events and server.events % 50 == 0:
                snapshots.append(server.snapshot())
        assert snapshots
        frontiers = [s["frontier_index"] for s in snapshots]
        assert frontiers == sorted(frontiers)  # monotone frontier
        assert all(s["events_seen"] >= 1 for s in snapshots)

    def test_progress_callback_fires(self, register_log):
        path, _ = register_log
        calls = []
        server = VerdictServer(progress_every=25, progress=calls.append)
        serve_file(server, path)
        assert calls
        assert all("frontier_index" in c for c in calls)

    def test_serve_lines_equals_serve_file(self, register_log):
        path, _ = register_log
        by_file = serve_file(VerdictServer(), path)
        by_lines = serve_lines(VerdictServer(), iter(read_lines(path)))
        assert by_lines.status == by_file.status
        assert by_lines.stream == by_file.stream

    def test_blank_lines_are_ignored(self, register_log, tmp_path):
        path, _ = register_log
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n".join(l.rstrip("\n") + "\n" for l in
                                    read_lines(path)))
        outcome = serve_file(VerdictServer(), str(padded))
        assert outcome.clean_end

    def test_outcome_exit_codes(self):
        ok = ServeOutcome(
            status=LIN_OK, lin_ok=True, audit_ok=True, clean_end=True
        )
        assert ok.exit_code == 0 and ok.ok
        bad = ServeOutcome(
            status="fail", lin_ok=False, audit_ok=True, clean_end=True
        )
        assert bad.exit_code == 1 and not bad.ok
        partial = ServeOutcome(
            status=LIN_PARTIAL, lin_ok=None, audit_ok=None, clean_end=False
        )
        assert partial.exit_code == 2 and not partial.ok


#: lin status x audit_ok -> the verdict every recorded run gets.
VERDICT_TABLE = {
    ("ok", True): "PASS", ("ok", None): "PASS", ("ok", False): "FAIL",
    ("fail", True): "FAIL", ("fail", None): "FAIL", ("fail", False): "FAIL",
    ("undecided", True): "PARTIAL", ("undecided", None): "PARTIAL",
    ("undecided", False): "FAIL",
    ("partial", True): "PARTIAL", ("partial", None): "PARTIAL",
    ("partial", False): "FAIL",
}


class TestVerdictRule:
    """Stress and serve judge a validator's output with one rule."""

    @pytest.mark.parametrize(
        "status,audit_ok", list(VERDICT_TABLE),
        ids=[f"{s}-{a}" for s, a in VERDICT_TABLE],
    )
    def test_stress_and_serve_agree(self, status, audit_ok):
        from repro.campaign.executors import StressExecutor
        from repro.engine.aggregate import EXIT_CODES
        from repro.rt.stress import StressReport

        lin_ok = {"ok": True, "fail": False}.get(status)
        report = StressReport(
            object="register", readers=1, writers=1, auditors=1, seed=0,
            ops_budget=1, duration=None, validated=True, lin_ok=lin_ok,
            audit_ok=audit_ok, lin_status=status,
        )
        outcome = ServeOutcome(
            status=status, lin_ok=lin_ok, audit_ok=audit_ok,
            clean_end=status != LIN_PARTIAL,
        )
        verdict = VERDICT_TABLE[status, audit_ok]
        assert StressExecutor.judge(report) == verdict
        assert outcome.exit_code == EXIT_CODES[verdict]
        for text in (report.render(), outcome.render()):
            assert f"verdict       : {verdict}" in text
            if status == LIN_PARTIAL:
                assert "[PARTIAL]" in text


class TestCli:
    def test_serve_smoke_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "matches the batch oracle" in out

    def test_serve_cli_roundtrip(self, register_log, capsys):
        from repro.__main__ import main

        path, report = register_log
        code = main(["serve", path])
        assert code == (0 if report.ok else 1)
        assert "frontier" in capsys.readouterr().out

    def test_serve_cli_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["serve", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err
