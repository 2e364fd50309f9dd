"""Tests for the schedule-fuzzing subsystem (repro.fuzz).

The load-bearing properties:

- the schedule-injection hook: a schedule returning ``CrashDecision``
  crashes the process through the ordinary runner seam;
- determinism: a (sampler, seed) pair always produces the same trace,
  and batch payloads are pure functions of their task parameters;
- the acceptance contract on every known-violating catalogue target:
  a fixed-seed campaign finds the violation within a bounded schedule
  budget, the shrunken trace is strictly shorter than the original,
  replaying the shrunken trace byte-identically reproduces the
  identical verdict, and shrinking a shrunk trace is a no-op;
- campaign JSONL is byte-identical between serial and ``--workers N``
  runs and resumable mid-campaign (the engine contract);
- the CLI exit-code contract: 0 clean / 1 violation / 2 budget
  PARTIAL or usage error.
"""

import dataclasses
import json
import random

import pytest

from repro.fuzz import (
    dumps_trace,
    get_target,
    loads_trace,
    replay_trace,
    run_one,
    sampler_from_name,
    sampler_names,
    shrink_trace,
    target_names,
    trace_from_payload,
    trace_to_payload,
    violating_target_names,
)
from repro.fuzz.campaign import run_batch, run_campaign
from repro.fuzz.executor import ReplayMismatch, run_decisions_lenient
from repro.fuzz.trace import (
    CRASH,
    DUPLICATE,
    OMIT,
    PARTITION,
    RECOVER,
    STEP,
    ScheduleTrace,
    TraceFormatError,
    decision_weight,
    partition_entry,
)
from repro.memory.register import AtomicRegister
from repro.sim.process import Op, ProcessState
from repro.sim.runner import Simulation
from repro.sim.scheduler import CrashDecision, Schedule


class TestCrashInjectionHook:
    def test_schedule_can_crash_a_process(self):
        sim = Simulation()
        reg = AtomicRegister("x", 0)

        def spin():
            for _ in range(3):
                yield from reg.read()

        sim.spawn("a")
        sim.spawn("b")
        sim.add_program("a", [Op("sa", spin)])
        sim.add_program("b", [Op("sb", spin)])

        class CrashB(Schedule):
            def __init__(self):
                self.fired = False

            def choose(self, runnable, step_index):
                if not self.fired:
                    self.fired = True
                    return CrashDecision("b")
                return min(runnable, key=lambda p: p.pid)

        sim.schedule = CrashB()
        history = sim.run()
        assert sim.processes["b"].state is ProcessState.CRASHED
        assert not sim.processes["b"].has_work()
        # a finished normally; b's operation never completed
        complete = history.complete_operations()
        assert [op.pid for op in complete] == ["a"]


class TestTraceCodec:
    def trace(self):
        return ScheduleTrace(
            target="buggy-counter",
            seed=42,
            sampler="uniform",
            decisions=((STEP, "inc0"), (CRASH, "noise0"), (STEP, "inc1")),
            verdict="not linearizable",
        )

    def test_payload_roundtrip(self):
        trace = self.trace()
        assert trace_from_payload(trace_to_payload(trace)) == trace

    def test_bytes_roundtrip_and_canonical(self):
        trace = self.trace()
        text = dumps_trace(trace)
        assert loads_trace(text) == trace
        assert dumps_trace(loads_trace(text)) == text
        # canonical: sorted keys, no whitespace
        assert json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        ) == text

    def test_bad_payloads_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_trace("[]")
        with pytest.raises(TraceFormatError):
            trace_from_payload({"format": "nope", "target": "t", "seed": 0})
        payload = trace_to_payload(self.trace())
        payload["decisions"] = [["teleport", "inc0"]]
        with pytest.raises(TraceFormatError):
            trace_from_payload(payload)
        payload = trace_to_payload(self.trace())
        payload["seed"] = "zzz"  # must be a format error, not ValueError
        with pytest.raises(TraceFormatError):
            trace_from_payload(payload)

    def test_non_canonical_encoding_still_loads(self):
        trace = self.trace()
        pretty = json.dumps(trace_to_payload(trace), indent=2)
        assert loads_trace(pretty) == trace


class TestSamplers:
    @pytest.mark.parametrize("name", sampler_names())
    def test_fresh_instances_are_deterministic(self, name):
        target = get_target("buggy-counter-deep")
        a = run_one(target, 7, sampler_from_name(name))
        b = run_one(target, 7, sampler_from_name(name))
        assert dumps_trace(a.trace) == dumps_trace(b.trace)

    @pytest.mark.parametrize("name", sampler_names())
    def test_every_sampler_finds_the_counter_bug(self, name):
        target = get_target("buggy-counter")
        sampler = sampler_from_name(name)
        assert any(
            run_one(target, seed, sampler).violating
            for seed in range(64)
        ), f"{name} sampler missed the lost update in 64 schedules"

    def test_coverage_sampler_reuses_mc_fingerprints(self):
        from repro.mc import configuration_fingerprint  # the reuse seam

        assert callable(configuration_fingerprint)
        target = get_target("alg1-w1-r1")
        sampler = sampler_from_name("coverage")
        result = run_one(target, 0, sampler)
        assert result.coverage_states and result.coverage_states > 1
        assert sampler.needs_fingerprints

    def test_crash_decisions_only_on_crash_targets(self):
        target = get_target("buggy-counter")  # crashes disarmed
        sampler = sampler_from_name("uniform")
        for seed in range(20):
            result = run_one(target, seed, sampler)
            assert all(
                kind == STEP for kind, _ in result.trace.decisions
            )

    def test_alg1_clean_under_the_same_fault_model(self):
        # The naive baseline's counterpart claim: Algorithm 1 under
        # crash injection never violates its (non-vacuous) post-hoc
        # audit-exactness oracle.
        target = get_target("alg1-crash-audit")
        sampler = sampler_from_name("uniform", crash_rate=0.5)
        crashing_runs = 0
        for seed in range(48):
            result = run_one(target, seed, sampler)
            assert not result.violating, result.verdict
            if any(kind == CRASH for kind, _ in result.trace.decisions):
                crashing_runs += 1
        assert crashing_runs > 0  # the fault model was exercised

    def test_alg1_crash_audit_oracle_is_not_vacuous(self):
        factory, check = get_target("alg1-crash-audit").build()
        sim, reg = factory()
        while sim.runnable():
            sim.step_process(min(p.pid for p in sim.runnable()))
        assert check(sim, reg) is None
        audits = sim.history.complete_operations(name="audit")
        assert audits and audits[-1].result  # a real audit was judged

    def test_crash_budget_respected(self):
        target = get_target("naive-crash-audit")  # max_crashes=1
        sampler = sampler_from_name("uniform", crash_rate=1.0)
        for seed in range(20):
            result = run_one(target, seed, sampler)
            crashes = [
                pid for kind, pid in result.trace.decisions
                if kind == CRASH
            ]
            assert len(crashes) <= 1
            assert all(pid.startswith("r") for pid in crashes)


class TestRunAndReplay:
    def test_clean_run_replays_byte_identically(self):
        target = get_target("alg1-w1-r1")
        result = run_one(target, 3, sampler_from_name("uniform"))
        assert result.complete and not result.violating
        replayed = replay_trace(target, result.trace)
        assert dumps_trace(replayed.trace) == dumps_trace(result.trace)

    def test_replay_rejects_foreign_decisions(self):
        target = get_target("alg1-w1-r1")
        result = run_one(target, 3, sampler_from_name("uniform"))
        bogus = result.trace.with_decisions(
            ((STEP, "no-such-pid"),) + result.trace.decisions,
            result.trace.verdict,
        )
        with pytest.raises(ReplayMismatch):
            replay_trace(target, bogus)

    def test_replay_rejects_truncated_trace(self):
        target = get_target("alg1-w1-r1")
        result = run_one(target, 3, sampler_from_name("uniform"))
        truncated = result.trace.with_decisions(
            result.trace.decisions[:3], result.trace.verdict
        )
        with pytest.raises(ReplayMismatch):
            replay_trace(target, truncated)

    def test_lenient_execution_drops_decisions_after_completion(self):
        # A crash shifted past the end of the run by earlier removals
        # must be dropped, or the effective trace would not be closed
        # and strict replay would reject it.
        target = get_target("buggy-counter")
        result = run_one(target, 0, sampler_from_name("uniform"))
        trailing = list(result.trace.decisions) + [(CRASH, "noise0")]
        verdict, effective = run_decisions_lenient(target, trailing)
        assert effective == result.trace.decisions
        replayed = replay_trace(
            target, result.trace.with_decisions(effective, verdict)
        )
        assert replayed.verdict == verdict

    def test_lenient_execution_skips_and_completes(self):
        target = get_target("buggy-counter")
        verdict, effective = run_decisions_lenient(
            target, [(STEP, "no-such-pid"), (STEP, "inc0")]
        )
        # the bogus decision is dropped, the run still completes
        assert (STEP, "inc0") in effective
        assert all(pid != "no-such-pid" for _, pid in effective)
        # min-pid completion of the counter scenario is sequential:
        # no lost update
        assert verdict is None


class TestAcceptanceOnViolatingTargets:
    """The PR's acceptance criterion, per known-violating target."""

    BUDGET = 256  # schedules; every target violates well within this

    @pytest.mark.parametrize("name", violating_target_names())
    def test_find_shrink_replay(self, name):
        target = get_target(name)
        payload = run_batch(
            0, target=name, sampler="uniform",
            schedules=self.BUDGET, shrink=True,
        )
        assert payload["violations"] > 0, (
            f"{name}: no violation within {self.BUDGET} schedules"
        )
        first = payload["first_violation"]
        original = trace_from_payload(first["trace"])
        shrunk = trace_from_payload(first["shrunk"])
        # strictly shorter
        assert len(shrunk) < len(original)
        assert first["shrunk_len"] == len(shrunk)
        # identical verdict under strict replay, byte-identical bytes
        replayed = replay_trace(target, shrunk)
        assert replayed.verdict == original.verdict == shrunk.verdict
        assert dumps_trace(replayed.trace) == dumps_trace(shrunk)

    @pytest.mark.parametrize("name", violating_target_names())
    def test_shrinking_a_shrunk_trace_is_a_noop(self, name):
        target = get_target(name)
        payload = run_batch(
            0, target=name, sampler="uniform",
            schedules=self.BUDGET, shrink=True,
        )
        shrunk = trace_from_payload(payload["first_violation"]["shrunk"])
        again = shrink_trace(target, shrunk)
        assert again.minimal
        assert dumps_trace(again.trace) == dumps_trace(shrunk)

    def test_catalogue_knows_its_violating_targets(self):
        names = violating_target_names()
        assert "naive-crash-audit" in names
        assert "buggy-counter" in names
        # the paper's design survives the same fault model
        assert "alg1-crash-audit" not in names
        assert set(names) <= set(target_names())


class TestBatchDeterminism:
    def test_batch_payload_is_a_pure_function_of_the_task(self):
        a = run_batch(5, target="buggy-counter", schedules=8)
        b = run_batch(5, target="buggy-counter", schedules=8)
        canon = lambda p: json.dumps(p, sort_keys=True)  # noqa: E731
        assert canon(a) == canon(b)

    def test_coverage_batches_are_deterministic_too(self):
        a = run_batch(5, target="alg1-w1-r1", sampler="coverage",
                      schedules=6)
        b = run_batch(5, target="alg1-w1-r1", sampler="coverage",
                      schedules=6)
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )
        assert a["coverage_states"] > 0


class TestCampaign:
    def test_serial_and_parallel_records_byte_identical(self, tmp_path):
        out1 = tmp_path / "serial.jsonl"
        out2 = tmp_path / "parallel.jsonl"
        kwargs = dict(
            schedules=24, batch=8, root_seed=1, shrink=False,
            stop_on_violation=False,
        )
        run_campaign(["alg1-w1-r1"], workers=1,
                     checkpoint=str(out1), **kwargs)
        run_campaign(["alg1-w1-r1"], workers=2,
                     checkpoint=str(out2), **kwargs)
        assert out1.read_bytes() == out2.read_bytes()

    def test_campaign_resumes_mid_run(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        kwargs = dict(
            schedules=24, batch=8, root_seed=1, shrink=False,
            stop_on_violation=False, workers=1,
        )
        run_campaign(["alg1-w1-r1"], checkpoint=str(out), **kwargs)
        full = out.read_bytes()
        lines = full.decode().strip().split("\n")
        out.write_text("\n".join(lines[:1]) + "\n")
        resumed = run_campaign(["alg1-w1-r1"], checkpoint=str(out),
                               **kwargs)
        assert resumed.skipped == 1
        assert resumed.executed == len(lines) - 1
        assert out.read_bytes() == full

    def test_stop_on_violation_is_chunk_deterministic(self, tmp_path):
        out1 = tmp_path / "v1.jsonl"
        out2 = tmp_path / "v2.jsonl"
        kwargs = dict(schedules=160, batch=4, root_seed=0, shrink=False)
        r1 = run_campaign(["buggy-counter"], workers=1,
                          checkpoint=str(out1), **kwargs)
        r2 = run_campaign(["buggy-counter"], workers=2,
                          checkpoint=str(out2), **kwargs)
        assert r1.violations and r2.violations
        assert out1.read_bytes() == out2.read_bytes()

    def test_resume_after_violation_executes_nothing(self, tmp_path):
        # A checkpoint that already records the violation must
        # short-circuit the resumed campaign before any new chunk runs
        # (and leave the records byte-identical).
        out = tmp_path / "violating.jsonl"
        kwargs = dict(
            schedules=160, batch=4, root_seed=0, shrink=False,
            workers=1,
        )
        first = run_campaign(["buggy-counter"], checkpoint=str(out),
                             **kwargs)
        assert first.violations
        stored = out.read_bytes()
        again = run_campaign(["buggy-counter"], checkpoint=str(out),
                             **kwargs)
        assert again.violations == first.violations
        assert again.executed == 0
        assert out.read_bytes() == stored

    def test_time_budget_zero_is_partial(self):
        report = run_campaign(
            ["alg1-w1-r1"], schedules=8, batch=8, time_budget=0.0
        )
        assert report.partial and report.exit_code == 2

    def test_schedule_budget_is_exact_not_rounded_up(self):
        report = run_campaign(
            ["alg1-w1-r1"], schedules=20, batch=8, shrink=False,
            stop_on_violation=False,
        )
        assert report.schedules == 20  # 8 + 8 + 4, not 24
        assert report.tasks_total == 3

    def test_executed_count_spans_chunks(self):
        # More batches than one chunk: every task is fresh, so
        # executed must count them all (not just the final chunk's).
        from repro.fuzz.campaign import CHUNK_TASKS

        n = CHUNK_TASKS + 4
        report = run_campaign(
            ["alg1-w1-r1"], schedules=n, batch=1, shrink=False,
            stop_on_violation=False,
        )
        assert report.tasks_total == n
        assert report.executed == n
        assert report.skipped == 0

    def test_resume_preserves_records_past_the_chunk_boundary(
        self, tmp_path
    ):
        # Records beyond the first chunk must survive a resume: the
        # chunked loop sees the full task list, so a checkpoint with
        # more records than one chunk is validated, kept, and only the
        # genuinely missing tail re-executes.
        from repro.fuzz.campaign import CHUNK_TASKS

        n = CHUNK_TASKS + 8
        out = tmp_path / "campaign.jsonl"
        kwargs = dict(
            schedules=n, batch=1, shrink=False,
            stop_on_violation=False, workers=1,
        )
        run_campaign(["alg1-w1-r1"], checkpoint=str(out), **kwargs)
        full = out.read_bytes()
        lines = full.decode().strip().split("\n")
        assert len(lines) == n
        keep = CHUNK_TASKS + 2  # strictly past the first chunk
        out.write_text("\n".join(lines[:keep]) + "\n")
        resumed = run_campaign(["alg1-w1-r1"], checkpoint=str(out),
                               **kwargs)
        assert resumed.skipped == keep
        assert resumed.executed == n - keep
        assert out.read_bytes() == full
        # resuming a complete campaign re-executes nothing
        again = run_campaign(["alg1-w1-r1"], checkpoint=str(out),
                             **kwargs)
        assert again.executed == 0 and again.skipped == n
        assert out.read_bytes() == full


class TestFuzzCLI:
    def run_cli(self, argv):
        from repro.__main__ import main

        return main(["fuzz"] + argv)

    def test_clean_target_exits_zero(self, capsys):
        code = self.run_cli(
            ["--target", "alg1-w1-r1", "--schedules", "8",
             "--batch", "8"]
        )
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_violation_exits_one(self, capsys):
        code = self.run_cli(
            ["--target", "buggy-counter", "--schedules", "64",
             "--batch", "16", "--no-shrink"]
        )
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_time_budget_exits_two(self, capsys):
        code = self.run_cli(
            ["--target", "alg1-w1-r1", "--schedules", "8",
             "--time-budget", "0"]
        )
        assert code == 2
        assert "[PARTIAL]" in capsys.readouterr().out

    def test_unknown_target_exits_two(self, capsys):
        assert self.run_cli(["--target", "no-such-target"]) == 2

    def test_bad_knob_values_exit_two(self, capsys):
        assert self.run_cli(
            ["--target", "alg1-w1-r1", "--schedules", "0"]
        ) == 2
        assert self.run_cli(
            ["--target", "alg1-w1-r1", "--schedules", "4",
             "--sampler", "pct", "--pct-depth", "0"]
        ) == 2

    def test_smoke_rejects_explicit_target(self, capsys):
        assert self.run_cli(["--smoke", "--target", "alg1-w1-r1"]) == 2

    def test_smoke_rejects_overridden_campaign_flags(self, capsys):
        # --smoke pins these; silently ignoring them would lie
        assert self.run_cli(["--smoke", "--sampler", "pct"]) == 2
        assert self.run_cli(["--smoke", "--schedules", "8"]) == 2
        assert self.run_cli(["--smoke", "--workers", "4"]) == 2

    def test_list_targets(self, capsys):
        assert self.run_cli(["--list"]) == 0
        out = capsys.readouterr().out
        assert "naive-crash-audit" in out
        assert "alg1-w1-r1" in out

    def test_save_and_replay_byte_identical(self, tmp_path, capsys):
        trace_file = tmp_path / "counterexample.json"
        code = self.run_cli(
            ["--target", "naive-crash-audit", "--schedules", "64",
             "--batch", "16", "--seed", "0",
             "--save-trace", str(trace_file)]
        )
        assert code == 1
        saved = trace_file.read_text().strip()
        trace = loads_trace(saved)
        assert trace.verdict is not None

        code = self.run_cli(["--replay", str(trace_file)])
        out = capsys.readouterr().out
        assert code == 1  # the violation reproduces
        assert "byte-identical re-execution: yes" in out

        code = self.run_cli(
            ["--replay", str(trace_file), "--expect-violation"]
        )
        assert code == 0

    def test_replay_garbage_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert self.run_cli(["--replay", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        assert self.run_cli(["--replay", str(missing)]) == 2

    def test_smoke_expect_violation_contract(self, tmp_path, capsys):
        # the CI fuzz-smoke job's exact invocation
        trace_file = tmp_path / "smoke-trace.json"
        code = self.run_cli(
            ["--smoke", "--expect-violation",
             "--save-trace", str(trace_file)]
        )
        assert code == 0
        code = self.run_cli(
            ["--replay", str(trace_file), "--expect-violation"]
        )
        assert code == 0


class TestFaultFuzzing:
    """Message faults (dup/omit/recover/partition) as schedule decisions."""

    def test_partition_entry_is_canonical(self):
        assert partition_entry(["q", "p", "q"], 4) == (PARTITION, "p,q", 4)
        assert partition_entry(("p",), 2) == (PARTITION, "p", 2)

    def test_decision_weight_orders_fault_severity(self):
        assert decision_weight((STEP, "p")) == 0
        assert decision_weight((CRASH, "p")) == 1
        assert decision_weight((DUPLICATE, "p")) == 1
        assert decision_weight(partition_entry(["p", "q"], 6)) == 6

    def test_fault_decisions_roundtrip_in_the_codec(self):
        trace = ScheduleTrace(
            target="alg1-dup-audit", seed=9, sampler="fault",
            decisions=(
                (STEP, "r0"), (DUPLICATE, "r0"), (OMIT, "w0"),
                (RECOVER, "r1"), partition_entry(["r0", "w0"], 3),
            ),
            verdict="boom",
        )
        assert trace_from_payload(trace_to_payload(trace)) == trace
        assert loads_trace(dumps_trace(trace)) == trace

    def test_bad_partition_entries_rejected(self):
        base = trace_to_payload(
            ScheduleTrace(target="t", seed=0, sampler="u")
        )
        for bad in (
            ["partition", "p,q"],        # missing the steps field
            ["partition", "", 3],        # empty pid set
            ["partition", "p", 0],       # sever window below 1
            ["partition", "p", True],    # bool is not a step count
            ["partition", "p", "3"],     # non-integer steps
        ):
            payload = dict(base)
            payload["decisions"] = [bad]
            with pytest.raises(TraceFormatError):
                trace_from_payload(payload)

    def test_fault_sampler_is_deterministic_and_policy_bound(self):
        target = get_target("alg1-dup-audit")  # dup only, r-pids, 1 max
        a = run_one(target, 11, sampler_from_name("fault"))
        b = run_one(target, 11, sampler_from_name("fault"))
        assert dumps_trace(a.trace) == dumps_trace(b.trace)
        exercised = 0
        for seed in range(24):
            result = run_one(target, seed, sampler_from_name("fault"))
            faults = [d for d in result.trace.decisions if d[0] != STEP]
            assert len(faults) <= 1  # max_faults binds the samplers
            for decision in faults:
                assert decision[0] == DUPLICATE
                assert decision[1].startswith("r")
            exercised += len(faults)
        assert exercised > 0  # the fault model was actually sampled

    def test_faults_only_on_fault_targets(self):
        target = get_target("buggy-counter")  # no fault families armed
        for seed in range(12):
            result = run_one(target, seed, sampler_from_name("fault"))
            assert all(d[0] == STEP for d in result.trace.decisions)

    def test_dup_counterexample_shrinks_to_a_loadbearing_dup(self):
        """The PR's flagship artifact: the shrunken alg1-dup-audit
        counterexample carries exactly one duplicate, and removing it
        kills the violation -- the fault is load-bearing, not noise."""
        target = get_target("alg1-dup-audit")
        payload = run_batch(
            0, target="alg1-dup-audit", sampler="uniform",
            schedules=256, shrink=True,
        )
        assert payload["violations"] > 0
        shrunk = trace_from_payload(payload["first_violation"]["shrunk"])
        dups = [d for d in shrunk.decisions if d[0] == DUPLICATE]
        assert len(dups) == 1
        without = [d for d in shrunk.decisions if d[0] != DUPLICATE]
        verdict, _ = run_decisions_lenient(target, without)
        assert verdict != shrunk.verdict
        replayed = replay_trace(target, shrunk)
        assert dumps_trace(replayed.trace) == dumps_trace(shrunk)

    def test_lenient_skips_inapplicable_faults(self):
        """Shrink candidates may move a fault somewhere it cannot apply
        (a dup before anything was applied, a recover of a live pid):
        the lenient executor drops it and the run still closes."""
        target = get_target("alg1-dup-audit")
        clean = run_one(
            target, 3, sampler_from_name("uniform", fault_rate=0.0)
        )
        assert all(d[0] == STEP for d in clean.trace.decisions)
        decisions = [(DUPLICATE, "r0"), (RECOVER, "r0")] + list(
            clean.trace.decisions
        )
        verdict, effective = run_decisions_lenient(target, decisions)
        assert all(d[0] == STEP for d in effective)
        assert verdict == clean.trace.verdict


class TestLenientClosure:
    """Every lenient effective sequence is closed: strict replay
    re-executes it to the same verdict, partitions included."""

    TARGET = dataclasses.replace(
        get_target("alg1-crash-audit"),
        name="all-faults",
        faults=(DUPLICATE, OMIT, PARTITION, RECOVER),
        max_faults=3,
    )

    def _assert_closed(self, decisions):
        verdict, effective = run_decisions_lenient(self.TARGET, decisions)
        trace = ScheduleTrace(
            target=self.TARGET.name, seed=0, sampler="shrink",
            decisions=effective, verdict=verdict,
        )
        assert replay_trace(self.TARGET, trace).verdict == verdict

    def test_an_all_severed_partition_heals_in_full(self):
        # Both partitions sever every runnable pid: the runner heals
        # them at once and in full, so the later steps of r1 are legal.
        self._assert_closed([
            (STEP, "r0"), (PARTITION, "r0,r1,w0", 4),
            (PARTITION, "r1,w0", 4), (STEP, "r1"), (STEP, "r1"),
            (STEP, "w0"), (STEP, "w0"), (STEP, "w0"), (STEP, "w0"),
            (STEP, "r1"), (STEP, "w0"), (STEP, "w0"), (STEP, "w0"),
        ])

    def test_randomly_thinned_fault_traces_stay_closed(self):
        rng = random.Random(0)
        for seed in range(100):
            decisions = run_one(
                self.TARGET, seed, sampler_from_name("fault")
            ).trace.decisions
            for _ in range(10):
                self._assert_closed(
                    [d for d in decisions if rng.random() > 0.25]
                )

