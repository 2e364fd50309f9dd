"""The campaign layer: spec model, compilation, execution, resume.

The load-bearing properties:

- the spec is one value constructible two ways (builder, file) that
  always crosses to the same points, and ``sweep``/``check``/``fuzz``/
  ``stress --print-spec`` print exactly the section they run;
- campaign sections run under the engine's byte-identical resumable
  JSONL contract (identical bytes across worker counts and across
  interrupt-then-resume);
- per-point verdicts match the equivalent standalone subsystem
  invocation exactly (the executors wrap the same entry points).
"""

import json
import sys

import pytest

from repro.campaign import (
    Axis,
    CampaignSpec,
    Section,
    SpecError,
    campaign_point_task,
    compile_section,
    compile_spec,
    dumps_spec,
    executor_for,
    executor_names,
    load_spec,
    loads_spec,
    run_spec,
    section_checkpoint,
)
from repro.campaign.report import axis_slices, render_outcome

HAS_TOMLLIB = sys.version_info >= (3, 11)


def small_spec():
    """Two sections, fast: crossed sweep points + a check point."""
    spec = CampaignSpec(name="t", root_seed=7)
    sweep = spec.section("sw", "sweep", seeds=[3, 4], object="register")
    sweep.axis("num_readers", 1, 2)
    spec.section("mc", "check").axis("scenario", "alg1-w1-r1")
    return spec


# -- the spec model ---------------------------------------------------------


class TestSpecModel:
    def test_axes_cross_in_declaration_order(self):
        sec = Section("s", "sweep", params={"object": "register"})
        sec.axis("a", 1, 2).axis("b", "x", "y")
        combos = sec.combinations()
        assert [(c["a"], c["b"]) for c in combos] == [
            (1, "x"), (1, "y"), (2, "x"), (2, "y"),
        ]

    def test_seed_list_used_verbatim_per_combination(self):
        sec = Section("s", "check", seeds=[5, 9])
        sec.axis("scenario", "alg1-w1-r1", "alg1-w2")
        points = sec.points(root_seed=0)
        assert [p.seed for p in points] == [5, 9, 5, 9]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_seed_count_derives_per_combination_identity(self):
        sec = Section("s", "check", seeds=2)
        sec.axis("scenario", "alg1-w1-r1", "alg1-w2")
        by_scenario = {}
        for p in sec.points(root_seed=0):
            by_scenario.setdefault(p.params["scenario"], []).append(p.seed)
        # Distinct combinations draw distinct derived seed streams.
        assert by_scenario["alg1-w1-r1"] != by_scenario["alg1-w2"]

    def test_adding_an_axis_value_never_perturbs_other_seeds(self):
        def seeds_for(scenarios):
            sec = Section("s", "check", seeds=2)
            sec.axis("scenario", *scenarios)
            out = {}
            for p in sec.points(root_seed=0):
                out.setdefault(p.params["scenario"], []).append(p.seed)
            return out

        small = seeds_for(["alg1-w1-r1"])
        grown = seeds_for(["alg1-w1-r1", "alg1-w2"])
        assert grown["alg1-w1-r1"] == small["alg1-w1-r1"]

    def test_builder_chain_returns_section(self):
        spec = CampaignSpec("x")
        sec = spec.section("s", "check").axis("scenario", "alg1-w1-r1")
        assert isinstance(sec, Section)
        assert spec.sections == [sec]

    @pytest.mark.parametrize("bad", [
        lambda: Axis("a", ()),
        lambda: Section("s", "check", seeds=0),
        lambda: Section("s", "check", seeds=[]),
        lambda: Section("s", "check", seeds=[1, True]),
        lambda: Section("s", "check", seeds=True),
        lambda: Section("", "check"),
    ])
    def test_malformed_pieces_raise_spec_error(self, bad):
        with pytest.raises(SpecError):
            bad()

    def test_duplicate_axis_and_param_conflicts(self):
        sec = Section("s", "stress", params={"object": "register"})
        sec.axis("runtime", "thread")
        with pytest.raises(SpecError):
            sec.axis("runtime", "process")
        with pytest.raises(SpecError):
            sec.axis("object", "max")
        with pytest.raises(SpecError):
            sec.param(runtime="process")

    def test_duplicate_section_name_rejected(self):
        spec = CampaignSpec("x")
        spec.section("s", "check")
        with pytest.raises(SpecError):
            spec.section("s", "fuzz")


# -- files: TOML / JSON -----------------------------------------------------


class TestSpecFiles:
    def test_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        loaded = load_spec(str(path))
        assert loaded.to_dict() == spec.to_dict()

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib is 3.11+")
    def test_toml_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.toml"
        path.write_text(dumps_spec(spec), encoding="utf-8")
        loaded = load_spec(str(path))
        assert loaded.to_dict() == spec.to_dict()

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib is 3.11+")
    def test_toml_and_json_forms_cross_identically(self):
        spec = small_spec()
        via_toml = loads_spec(dumps_spec(spec), format="toml")
        via_json = loads_spec(
            json.dumps(spec.to_dict()), format="json"
        )
        assert (
            [(p.section, p.index, p.seed, p.params)
             for p in via_toml.points()]
            == [(p.section, p.index, p.seed, p.params)
                for p in via_json.points()]
        )

    @pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib is 3.11+")
    def test_nested_params_survive_toml(self):
        spec = CampaignSpec("x")
        spec.section(
            "f", "fuzz", sampler="pct",
            sampler_params={"depth": 2}, schedules=8, batch=8,
        ).axis("target", "alg1-w1-r1")
        loaded = loads_spec(dumps_spec(spec), format="toml")
        assert (
            loaded.sections[0].params["sampler_params"] == {"depth": 2}
        )

    @pytest.mark.parametrize("text,format", [
        ("not json", "json"),
        ('{"sections": []}', "json"),
        ('{"wat": 1, "sections": [{"kind": "check"}]}', "json"),
        ('{"sections": [{"kind": "check", "wat": 1}]}', "json"),
        ('{"sections": [{"name": "s"}]}', "json"),
        ('{"sections": [{"kind": "check", "axes": {"a": 1}}]}', "json"),
    ])
    def test_malformed_files_raise_spec_error(self, text, format):
        with pytest.raises(SpecError):
            loads_spec(text, format=format)

    def test_unknown_format_and_missing_file(self, tmp_path):
        with pytest.raises(SpecError):
            loads_spec("x = 1", format="yaml")
        with pytest.raises(SpecError):
            load_spec(str(tmp_path / "nope.toml"))


# -- --print-spec: the section each subcommand runs ------------------------


def printed_spec(argv, capsys):
    from repro.__main__ import main

    assert main(argv + ["--print-spec"]) == 0
    return loads_spec(capsys.readouterr().out, format="toml")


def assert_runs_its_printed_spec(argv, tmp_path, capsys):
    """``argv --out`` and ``campaign run`` of ``argv --print-spec``
    write byte-identical records."""
    from repro.__main__ import main

    path = tmp_path / "cli.toml"
    path.write_text(
        dumps_spec(printed_spec(argv, capsys)), encoding="utf-8",
    )
    direct = tmp_path / "direct.jsonl"
    assert main(argv + ["--out", str(direct)]) == 0
    base = str(tmp_path / "campaign")
    assert main(
        ["campaign", "run", str(path), "--workers", "1", "--out", base]
    ) == 0
    capsys.readouterr()
    via_spec = section_checkpoint(base, argv[0])

    def seeds_and_payloads(file):
        records = [json.loads(line) for line in open(file)]
        return [(r["seed"], r["payload"]) for r in records]

    assert seeds_and_payloads(direct) == seeds_and_payloads(via_spec)
    assert direct.read_bytes() == open(via_spec, "rb").read()


@pytest.mark.skipif(not HAS_TOMLLIB, reason="tomllib is 3.11+")
class TestSpecFromCli:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--smoke", "--print-spec"],
        ["check", "--smoke", "--print-spec"],
        ["fuzz", "--smoke", "--print-spec"],
        ["stress", "--smoke", "--print-spec"],
        ["stress", "--smoke", "--print-spec", "--faults", "crash,delay",
         "--runtime", "thread"],
    ])
    def test_print_spec_emits_a_loadable_compilable_spec(
        self, argv, capsys
    ):
        from repro.__main__ import main

        assert main(argv) == 0
        text = capsys.readouterr().out
        spec = loads_spec(text, format="toml")
        compiled = compile_spec(spec)
        assert sum(len(t) for t in compiled.values()) >= 1

    def test_synthesized_sweep_matches_cli_granularity(self, capsys):
        spec = printed_spec([
            "sweep", "--seeds", "2", "--root-seed", "5",
            "--readers", "1", "2", "--writers", "1",
        ], capsys)
        assert spec.root_seed == 5
        points = spec.points()
        # 2 grid points x 2 seeds, exactly what repro sweep runs.
        assert len(points) == 4
        assert {p.params["num_readers"] for p in points} == {1, 2}

    def test_sweep_runs_its_printed_spec(self, tmp_path, capsys):
        """repro sweep and repro campaign run of its printed spec are
        the same run: same seeds, same payloads, same bytes."""
        assert_runs_its_printed_spec(["sweep", "--smoke"], tmp_path, capsys)

    def test_check_runs_its_printed_spec(self, tmp_path, capsys):
        """repro check --out writes the records its printed spec does:
        one per (scenario, reduce) point."""
        assert_runs_its_printed_spec(
            ["check", "--scenario", "alg1-silent-read", "--compare"],
            tmp_path, capsys,
        )

    def test_print_spec_carries_every_run_flag(self, capsys):
        stress = printed_spec(
            ["stress", "--smoke", "--no-validate"], capsys
        ).sections[0]
        assert stress.params["validate"] is False
        fuzz = printed_spec(
            ["fuzz", "--target", "alg1-w1-r1", "--keep-going"], capsys
        ).sections[0]
        assert fuzz.params["stop_on_violation"] is False
        check = printed_spec(
            ["check", "--smoke", "--compare"], capsys
        ).sections[0]
        assert {axis.name: axis.values for axis in check.axes} == {
            "scenario": ("alg1-w1-r1",), "reduce": (False, True),
        }

    @pytest.mark.parametrize("argv,flag", [
        (["stress", "--duration", "1"], "--duration"),
        (["stress", "--ops", "4", "--online"], "--online"),
        (["stress", "--ops", "4", "--event-log", "e.jsonl"], "--event-log"),
        (["stress", "--ops", "4", "--stream-window", "8"],
         "--stream-window"),
        (["fuzz", "--time-budget", "5"], "--time-budget"),
    ])
    def test_inexpressible_flags_refuse_to_print(self, argv, flag, capsys):
        from repro.__main__ import main

        assert main(argv + ["--print-spec"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


# -- compilation ------------------------------------------------------------


class TestCompile:
    def test_tasks_mirror_points(self):
        spec = small_spec()
        tasks = compile_section(spec.sections[0], spec.root_seed)
        points = spec.sections[0].points(spec.root_seed)
        assert [(t.index, t.seed) for t in tasks] == [
            (p.index, p.seed) for p in points
        ]
        params = dict(tasks[0].params)
        assert params["kind"] == "sweep"
        assert params["point"]["object"] == "register"

    def test_validation_fails_at_compile_time(self):
        spec = CampaignSpec("x")
        spec.section("mc", "check").axis(
            "scenario", "alg1-w1-r1", "no-such-scenario"
        )
        with pytest.raises(SpecError, match="no-such-scenario"):
            compile_spec(spec)

    def test_check_rejects_the_retired_fingerprints_param(self):
        # The explorer keeps no state memo, so there is nothing to
        # switch off: a spec naming the old knob is an unknown param.
        section = Section("mc", "check", params={
            "scenario": "alg1-w1-r1", "fingerprints": False,
        })
        with pytest.raises(SpecError, match="fingerprints"):
            compile_section(section)

    def test_unknown_kind_and_empty_spec(self):
        spec = CampaignSpec("x")
        with pytest.raises(SpecError):
            compile_spec(spec)
        spec.section("s", "no-such-kind")
        with pytest.raises(SpecError, match="no-such-kind"):
            compile_spec(spec)

    @pytest.mark.parametrize("kind,params", [
        ("sweep", {"object": "register", "num_readers": 0}),
        ("sweep", {"object": "register", "num_readers": -1}),
        ("sweep", {"object": "register", "num_writers": -1}),
        ("sweep", {"object": "snapshot", "components": 0}),
        ("stress", {"object": "register", "threads": 0}),
        ("stress", {"object": "register", "readers": 0, "writers": 0,
                    "auditors": 0}),
        ("stress", {"object": "register", "readers": -1, "writers": 2}),
        ("fuzz", {"target": "alg1-w1-r1", "schedules": 0}),
        ("fuzz", {"target": "alg1-w1-r1", "sampler": "pct",
                  "sampler_params": {"depth": 0}}),
    ])
    def test_bad_counts_fail_at_compile_time(self, kind, params):
        """Points the subsystem cannot build are rejected before
        anything runs, not inside a worker."""
        with pytest.raises(SpecError):
            compile_section(Section("s", kind, params=params))

    def test_non_json_safe_params_rejected(self):
        spec = CampaignSpec("x")
        spec.section("mc", "check", scenario="alg1-w1-r1",
                     max_executions={1, 2})
        with pytest.raises(SpecError, match="non-JSON-safe"):
            compile_spec(spec)

    def test_executor_registry_surface(self):
        assert executor_names() == [
            "check", "fuzz", "lin", "stress", "sweep",
        ]
        assert executor_for("stress").serial_only
        with pytest.raises(SpecError):
            executor_for("nope")


# -- verdict equivalence with the standalone subsystems --------------------


class TestExecutorEquivalence:
    def test_check_point_matches_standalone_explore(self):
        from repro.mc import explore
        from repro.mc.scenarios import get_scenario

        payload = campaign_point_task(
            0, kind="check", point={"scenario": "alg1-w1-r1"}
        )
        factory, check = get_scenario("alg1-w1-r1")()
        report = explore(factory, check)
        assert payload["verdict"] == "PASS"
        assert payload["executions"] == report.executions
        assert payload["distinct_states"] == report.distinct_states

    def test_fuzz_point_matches_standalone_campaign(self):
        from repro.fuzz.campaign import run_campaign

        point = {"target": "alg1-w1-r1", "schedules": 8, "batch": 8}
        payload = campaign_point_task(41, kind="fuzz", point=point)
        report = run_campaign(
            ["alg1-w1-r1"], schedules=8, batch=8, root_seed=41, workers=1
        )
        assert payload["schedules"] == report.schedules
        assert payload["steps"] == report.steps
        assert payload["violations"] == report.violations
        assert payload["verdicts"] == report.verdicts

    def test_fuzz_point_with_unjudged_runs_is_partial(self):
        """Runs that hit the step budget were never judged: with no
        violation, the point is PARTIAL, not PASS."""
        point = {"target": "alg1-w1-r1", "schedules": 4, "batch": 4,
                 "max_steps": 3}
        payload = campaign_point_task(41, kind="fuzz", point=point)
        assert payload["violations"] == 0
        assert payload["incomplete"] == 4
        assert payload["verdict"] == "PARTIAL"

    def test_sweep_point_is_the_sweep_task(self):
        from repro.engine.tasks import register_sweep_task

        payload = campaign_point_task(
            9, kind="sweep",
            point={"object": "register", "num_readers": 2,
                   "num_writers": 1},
        )
        direct = register_sweep_task(9, num_readers=2, num_writers=1)
        for key, value in direct.items():
            assert payload[key] == value
        assert payload["verdict"] == "PASS"

    def test_lin_point_is_a_direct_check(self):
        from repro.analysis.fastlin import check_history, op_to_payload
        from repro.analysis.specs import register_spec
        from repro.sim.history import OperationRecord

        ops = [
            OperationRecord(pid="w", op_id=0, name="write", args=(1,),
                            invoke_index=0, response_index=2),
            OperationRecord(pid="r", op_id=0, name="read", args=(),
                            invoke_index=1, response_index=3, result=1),
        ]
        payload = campaign_point_task(
            3, kind="lin",
            point={"history": [op_to_payload(o) for o in ops]},
        )
        direct = check_history(ops, register_spec(0))
        assert payload["status"] == direct.status
        assert payload["explored"] == direct.explored
        assert payload["verdict"] == "PASS"

    def test_stress_point_payload_is_deterministic(self):
        point = {
            "object": "register", "runtime": "thread", "threads": 3,
            "ops": 6, "faults": "crash,delay", "fault_rate": 200,
        }
        first = campaign_point_task(1, kind="stress", point=dict(point))
        second = campaign_point_task(1, kind="stress", point=dict(point))
        assert first == second
        assert first["verdict"] in ("PASS", "FAIL", "PARTIAL")
        assert "elapsed_s" not in first and "latency" not in first

    def test_stress_point_rejects_unbounded_and_bad_faults(self):
        stress = executor_for("stress")
        with pytest.raises(SpecError, match="bounded"):
            stress.validate_point({"object": "register", "ops": 0})
        with pytest.raises(SpecError, match="partition"):
            stress.validate_point({
                "object": "register", "runtime": "thread",
                "faults": "partition", "ops": 4,
            })
        # The same families are fine on the process runtime.
        stress.validate_point({
            "object": "register", "runtime": "process",
            "faults": "partition", "ops": 4,
        })


# -- running specs: byte-identity, resume, exit codes ----------------------


def read_section_bytes(out, spec):
    return {
        sec.name: open(
            section_checkpoint(str(out), sec.name), "rb"
        ).read()
        for sec in spec.sections
    }


class TestRunSpec:
    def test_serial_and_parallel_runs_are_byte_identical(self, tmp_path):
        spec = small_spec()
        serial = run_spec(spec, workers=1, out=str(tmp_path / "a"))
        parallel = run_spec(spec, workers=2, out=str(tmp_path / "b"))
        assert serial.exit_code == parallel.exit_code == 0
        a = read_section_bytes(tmp_path / "a", spec)
        b = read_section_bytes(tmp_path / "b", spec)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_then_resume_is_byte_identical(
        self, tmp_path, workers
    ):
        spec = small_spec()
        out = str(tmp_path / "c")
        full = run_spec(spec, workers=workers, out=out)
        assert [s.skipped for s in full.sections] == [0, 0]
        bytes_before = read_section_bytes(out, spec)

        # Simulate a mid-campaign kill: the first section finished, the
        # second was cut mid-file.
        sw = section_checkpoint(out, "sw")
        mc = section_checkpoint(out, "mc")
        first_line = open(sw, "rb").read().splitlines(keepends=True)[0]
        open(sw, "wb").write(first_line)
        import os

        os.unlink(mc)

        resumed = run_spec(spec, workers=workers, out=out)
        assert read_section_bytes(out, spec) == bytes_before
        by_name = {s.name: s for s in resumed.sections}
        assert by_name["sw"].skipped == 1
        assert by_name["sw"].executed == len(full.sections[0].records) - 1
        # Identical verdicts whether executed or resumed.
        assert [r["payload"] for r in resumed.sections[0].records] == [
            r["payload"] for r in full.sections[0].records
        ]

    def test_finished_sections_resume_without_executing(self, tmp_path):
        spec = small_spec()
        out = str(tmp_path / "d")
        run_spec(spec, workers=1, out=out)
        again = run_spec(spec, workers=1, out=out)
        assert all(s.executed == 0 for s in again.sections)
        assert all(s.skipped == len(s.records) for s in again.sections)

    def test_no_resume_reruns_everything(self, tmp_path):
        spec = small_spec()
        out = str(tmp_path / "e")
        run_spec(spec, workers=1, out=out)
        again = run_spec(spec, workers=1, out=out, resume=False)
        assert all(s.skipped == 0 for s in again.sections)

    def test_only_filters_sections(self):
        spec = small_spec()
        outcome = run_spec(spec, workers=1, only=["mc"])
        assert [s.name for s in outcome.sections] == ["mc"]
        with pytest.raises(SpecError, match="unknown section"):
            run_spec(spec, workers=1, only=["nope"])

    def test_fail_and_partial_exit_codes(self):
        failing = CampaignSpec("f")
        failing.section(
            "fz", "fuzz", schedules=24, batch=8,
        ).axis("target", "buggy-counter")
        outcome = run_spec(failing, workers=1)
        assert outcome.counts["FAIL"] >= 1
        assert outcome.exit_code == 1

        partial = CampaignSpec("p")
        partial.section("mc", "check", max_executions=5).axis(
            "scenario", "alg1-w2"
        )
        outcome = run_spec(partial, workers=1)
        assert outcome.counts["PARTIAL"] == 1
        assert outcome.exit_code == 2

    def test_report_rows_fold_along_axes(self):
        spec = small_spec()
        outcome = run_spec(spec, workers=1)
        slices = {row["slice"]: row for row in axis_slices(outcome)}
        assert slices["sw/num_readers=1"]["points"] == 2
        assert slices["sw/num_readers=2"]["points"] == 2
        text = render_outcome(outcome)
        assert "[PASS] campaign 't'" in text

    def test_report_folds_list_and_table_valued_axes(self):
        """Slices key on canonical JSON: a fuzz ``sampler_params`` axis
        and a lin ``history`` axis fold instead of crashing."""
        spec = CampaignSpec("lists")
        spec.section(
            "fz", "fuzz", sampler="pct", schedules=4, batch=4,
            target="alg1-w1-r1",
        ).axis("sampler_params", {"depth": 2}, {"depth": 3})
        from repro.analysis.fastlin import op_to_payload
        from repro.sim.history import OperationRecord

        write = op_to_payload(OperationRecord(
            pid="w", op_id=0, name="write", args=(1,),
            invoke_index=0, response_index=1,
        ))
        spec.section("lin", "lin").axis("history", [], [], [], [write])
        outcome = run_spec(spec, workers=1)
        slices = {row["slice"]: row for row in axis_slices(outcome)}
        assert slices['fz/sampler_params={"depth":2}']["points"] == 1
        assert slices['fz/sampler_params={"depth":3}']["points"] == 1
        assert slices["lin/history=[]"]["pass"] == 3
        # Too long to read as a label: named by its axis position.
        assert slices["lin/history=#3"]["pass"] == 1
        assert "[PASS] campaign 'lists'" in render_outcome(outcome)


# -- the acceptance crossing: scenarios x runtimes x faults x seeds --------


class TestAcceptanceCrossing:
    def acceptance_spec(self):
        spec = CampaignSpec(name="acceptance")
        sec = spec.section(
            "chaos", "stress",
            seeds=[0, 1], threads=3, ops=5, faults="crash,delay",
        )
        sec.axis("object", "register", "max")
        sec.axis("runtime", "thread", "process")
        sec.axis("fault_rate", 0, 150)
        spec.section("mc", "check").axis(
            "scenario", "alg1-w1-r1", "alg2-w1-r1"
        )
        return spec

    def test_crossing_runs_and_resumes_byte_identically(self, tmp_path):
        spec = self.acceptance_spec()
        out = str(tmp_path / "acc")
        outcome = run_spec(spec, workers=2, out=out)
        assert outcome.points == 2 * 2 * 2 * 2 + 2
        assert outcome.exit_code == 0
        bytes_before = read_section_bytes(out, spec)

        chaos = section_checkpoint(out, "chaos")
        lines = open(chaos, "rb").read().splitlines(keepends=True)
        open(chaos, "wb").writelines(lines[:5])
        resumed = run_spec(spec, workers=2, out=out)
        assert read_section_bytes(out, spec) == bytes_before
        assert resumed.sections[0].skipped == 5

    def test_point_verdicts_match_standalone_stress(self):
        from repro.rt import run_stress

        spec = self.acceptance_spec()
        points = spec.sections[0].points(spec.root_seed)
        sample = [p for p in points if p.params["runtime"] == "thread"][:2]
        for point in sample:
            payload = campaign_point_task(
                point.seed, kind="stress", point=point.params
            )
            report = run_stress(
                point.params["object"],
                threads=point.params["threads"],
                ops=point.params["ops"],
                seed=point.seed,
                validate=True,
                runtime=point.params["runtime"],
                faults=point.params["faults"],
                fault_rate=point.params["fault_rate"],
                record_latency=False,
            )
            assert payload["lin_ok"] == report.lin_ok
            assert payload["audit_ok"] == report.audit_ok
            assert payload["faults"] == report.faults
            assert (payload["verdict"] == "PASS") == (
                report.ok and report.lin_status != "undecided"
            )


# -- the campaign CLI -------------------------------------------------------


class TestCampaignCli:
    def test_smoke_runs_clean(self, capsys):
        from repro.__main__ import main

        assert main(["campaign", "run", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] campaign 'smoke'" in out

    def test_example_round_trips_through_show(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["campaign", "example"]) == 0
        text = capsys.readouterr().out
        if not HAS_TOMLLIB:
            pytest.skip("tomllib is 3.11+")
        path = tmp_path / "spec.toml"
        path.write_text(text, encoding="utf-8")
        assert main(["campaign", "show", str(path)]) == 0
        shown = capsys.readouterr().out
        assert "chaos-stress" in shown and "16 points" in shown

    def test_cli_run_with_checkpoint_and_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        out = tmp_path / "run"
        assert main([
            "campaign", "run", str(path), "--workers", "2",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "run", str(path), "--workers", "1",
            "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert " 0 " not in text.splitlines()[0]  # header row only

    def test_show_rejects_a_bad_role_count(self, tmp_path, capsys):
        spec = CampaignSpec("bad")
        spec.section("sw", "sweep", object="register", num_readers=0)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        from repro.__main__ import main

        assert main(["campaign", "show", str(path)]) == 2
        assert "num_readers" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["campaign", "run", str(tmp_path / "nope.toml")]) == 2
        assert main(["campaign", "show", str(tmp_path / "nope.toml")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"sections": []}', encoding="utf-8")
        assert main(["campaign", "run", str(bad)]) == 2
        capsys.readouterr()
