"""The runtime abstraction layer: ThreadRuntime, stress harness, CLI.

Concurrency tests here use small budgets: they assert *safety* of the
recorded histories (linearizability, audit exactness) under real
interleavings, not timing.  The crypto regression tests pin down the
satellite guarantee that concurrent nonce/pad draws neither drop nor
duplicate values.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.analysis import (
    auditable_register_spec,
    check_audit_exactness,
    check_history,
)
from repro.crypto.nonce import NonceSource
from repro.crypto.pad import OneTimePadSequence
from repro.faults import ScriptedFaultPlan
from repro.harness.experiments import run_e1, run_e6
from repro.memory.register import CasRegister
from repro.rt import (
    ProcessRuntime,
    Runtime,
    ThreadRuntime,
    WatchdogTimeout,
    make_runtime,
    percentile_summary,
    run_stress,
    split_threads,
)
from repro.sim.history import CrashEvent
from repro.sim.process import Op
from repro.sim.runner import Simulation
from repro.sim.scheduler import CrashDecision
from repro.workloads.generators import (
    RegisterWorkload,
    build_register_system,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- the runtime interface ---------------------------------------------------


def test_make_runtime_kinds():
    assert isinstance(make_runtime("sim"), Simulation)
    assert make_runtime("sim").kind == "sim"
    assert isinstance(make_runtime("thread"), ThreadRuntime)
    assert isinstance(make_runtime("sim"), Runtime)
    assert isinstance(make_runtime("thread"), Runtime)
    with pytest.raises(ValueError):
        make_runtime("quantum")


def test_make_runtime_arms_faults_on_thread_and_rejects_them_on_sim():
    """``faults=`` reaches the thread backend (a scripted crash lands);
    the simulator takes faults through its schedule seam instead."""
    plan = ScriptedFaultPlan(match=[(("w0", None, None), CrashDecision("w0"))])
    runtime = make_runtime("thread", faults=plan)
    assert runtime.faults is plan
    workload = RegisterWorkload(
        num_readers=1, num_writers=1, num_auditors=0,
        reads_per_reader=2, writes_per_writer=2, seed=0,
    )
    history = build_register_system(workload, runtime=runtime).run()
    crashes = [e for e in history.events if isinstance(e, CrashEvent)]
    assert [e.pid for e in crashes] == ["w0"]
    assert runtime.crashed == ["w0"]
    with pytest.raises(ValueError, match="schedule seam"):
        make_runtime("sim", faults=ScriptedFaultPlan())


def test_sim_runtime_is_byte_identical_to_direct_simulation():
    """``runtime="sim"`` builds the same Simulation as the default:
    same workload, same event log."""
    workload = RegisterWorkload(seed=11)
    direct = build_register_system(workload).run()
    built = build_register_system(workload, runtime="sim")
    assert isinstance(built.sim, Simulation)
    assert list(built.run()) == list(direct)


def test_thread_runtime_rejects_duplicate_pids():
    rt = ThreadRuntime()
    rt.spawn("p")
    with pytest.raises(ValueError):
        rt.spawn("p")


def test_thread_runtime_lock_table_pins_objects():
    """The per-object lock table must keep each registered object alive:
    a garbage-collected object's id could otherwise be reused by a new
    object, silently aliasing two objects to one lock."""
    import gc

    from repro.memory.register import CasRegister

    rt = ThreadRuntime()
    obj = CasRegister("c", 0)
    key = id(obj)
    lock = rt._lock_for(obj)
    assert rt._lock_for(obj) is lock  # stable per object
    assert rt._obj_locks[key][0] is obj  # strong reference pins it
    del obj
    gc.collect()
    # Still pinned after the caller dropped it: the id stays taken.
    assert rt._obj_locks[key][0].name == "c"
    other = CasRegister("d", 0)
    assert rt._lock_for(other) is not lock


def test_thread_runtime_watchdog_surfaces_stuck_pid():
    """A hung worker thread must raise (naming the pid), not hang the
    harness forever."""
    from repro.sim.process import Op

    release = threading.Event()

    def stuck():
        release.wait()
        return "late"
        yield  # pragma: no cover - makes this a generator function

    rt = ThreadRuntime(join_watchdog=0.3)
    rt.spawn("sleeper")
    rt.add_program("sleeper", [Op("stuck", stuck)])
    try:
        with pytest.raises(WatchdogTimeout, match=r"\['sleeper'\]"):
            rt.run()
    finally:
        release.set()  # let the daemon thread exit cleanly


def test_thread_runtime_watchdog_lets_a_slow_run_finish():
    """The watchdog judges progress, not the clock: a run that completes
    an operation every 50 ms for well over a second finishes under a
    0.3 s watchdog."""
    from repro.sim.process import Op

    def slow():
        time.sleep(0.05)
        return "done"
        yield  # pragma: no cover - makes this a generator function

    rt = ThreadRuntime(join_watchdog=0.3)
    rt.spawn("slow")
    rt.add_program("slow", [Op("slow", slow) for _ in range(25)])
    history = rt.run()
    assert rt.elapsed > 1.0
    assert len(history.complete_operations()) == 25


# Process-runtime programs are module-level factories: workers rebuild
# them on their side of the process boundary.


def _build_cas():
    return CasRegister("c", 0)


def _stuck_factory(reg, pid):
    def stuck():
        time.sleep(60)  # the watchdog terminates the worker first
        return (yield from reg.read())

    return [Op("stuck", stuck)]


def _slow_factory(reg, pid):
    def slow():
        time.sleep(0.05)
        return (yield from reg.read())

    return [Op("slow", slow) for _ in range(25)]


def test_process_runtime_watchdog_surfaces_stuck_pid():
    """A hung worker process must raise (naming the pid) and be
    terminated, not hang the harness forever."""
    rt = ProcessRuntime(_build_cas, join_watchdog=0.3)
    rt.add_program_factory("sleeper", _stuck_factory)
    start = time.perf_counter()
    with pytest.raises(WatchdogTimeout, match=r"\['sleeper'\]"):
        rt.run()
    assert time.perf_counter() - start < 30


def test_process_runtime_watchdog_lets_a_slow_run_finish():
    """The watchdog judges progress, not the clock: a worker process
    that completes an operation every 50 ms for well over a second
    finishes under a 0.3 s watchdog."""
    rt = ProcessRuntime(_build_cas, join_watchdog=0.3)
    rt.add_program_factory("slow", _slow_factory)
    history = rt.run()
    assert rt.elapsed > 1.0
    assert len(history.complete_operations()) == 25


def test_thread_runtime_propagates_worker_errors():
    from repro.sim.process import Op

    def boom():
        raise RuntimeError("kaboom")
        yield  # pragma: no cover - makes this a generator function

    rt = ThreadRuntime()
    rt.spawn("p")
    rt.add_program("p", [Op("boom", boom)])
    with pytest.raises(RuntimeError, match="process 'p' failed"):
        rt.run()


@pytest.mark.parametrize("seed", range(4))
def test_thread_runtime_concurrent_register_is_safe(seed):
    """8 real threads on Algorithm 1: history passes both oracles."""
    workload = RegisterWorkload(
        num_readers=3, num_writers=3, num_auditors=2,
        reads_per_reader=5, writes_per_writer=4, audits_per_auditor=3,
        seed=seed,
    )
    built = build_register_system(workload, runtime="thread")
    history = built.run()
    spec = auditable_register_spec(workload.initial, built.reader_index)
    assert check_history(history.operations(), spec).ok
    assert not check_audit_exactness(history, built.register)
    # every program ran to completion
    assert not history.pending_operations()


def test_experiment_drivers_accept_a_runtime():
    """E1/E6 legs hold under real threads (schedule-independent claims)."""
    assert run_e1(reader_counts=(2,), seeds=range(2), runtime="thread").ok
    assert run_e6(trials=40, seeds=range(4), pair_seeds=range(4),
                  runtime="thread").ok


# -- concurrent crypto draws (satellite regression) --------------------------


def _hammer(n_threads, per_thread, fn):
    barrier = threading.Barrier(n_threads)
    outputs = [[] for _ in range(n_threads)]

    def work(idx):
        barrier.wait()
        for _ in range(per_thread):
            outputs[idx].append(fn())

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [value for chunk in outputs for value in chunk]


def test_concurrent_nonce_draws_never_duplicate_or_drop():
    source = NonceSource(seed=3)
    drawn = _hammer(8, 250, source.fresh)
    assert len(drawn) == 8 * 250
    assert source.issued == 8 * 250  # no draw dropped
    assert len(set(drawn)) == len(drawn)  # no nonce duplicated


def test_concurrent_pad_draws_match_sequential_reference():
    """mask(s) stays a pure function of (seed, m, s) under contention."""
    pad = OneTimePadSequence(4, seed=9)
    observed = _hammer(6, 300, lambda: pad.mask(len(pad._masks) % 120))
    reference = OneTimePadSequence(4, seed=9)
    assert all(0 <= m < 16 for m in observed)
    assert pad._masks == [reference.mask(s) for s in range(len(pad._masks))]


def test_preset_and_sequential_nonce_sources_still_replay():
    from repro.crypto.nonce import PresetNonceSource, SequentialNonceSource

    preset = PresetNonceSource([7, 8], seed=5)
    reference = NonceSource(seed=5)
    assert [preset.fresh(), preset.fresh()] == [7, 8]
    assert preset.fresh() == reference.fresh()
    seq = SequentialNonceSource()
    assert [seq.fresh() for _ in range(3)] == [1, 2, 3]


# -- the stress harness ------------------------------------------------------


def test_split_threads_defaults_and_overrides():
    assert split_threads(8) == (4, 3, 1)
    assert split_threads(2) == (1, 1, 0)
    assert split_threads(1) == (0, 1, 0)
    assert split_threads(8, readers=2, writers=1, auditors=1) == (2, 1, 1)
    assert sum(split_threads(8)) == 8
    with pytest.raises(ValueError):
        split_threads(0)


def test_percentile_summary():
    stats = percentile_summary([i / 1e6 for i in range(1, 101)])
    assert stats["p50_us"] == 50.0
    assert stats["p90_us"] == 90.0
    assert stats["p99_us"] == 99.0
    assert stats["max_us"] == 100.0
    assert percentile_summary([]) == {}


def test_percentile_summary_nearest_rank_exact():
    """Nearest-rank = the sample at rank ceil(p*n), pinned exactly.

    Seven samples is the regression case: ceil(0.9 * 7) = 7 (the max),
    where the old round-half-up formula picked rank 6.
    """
    stats = percentile_summary([i / 1e6 for i in range(1, 8)])
    assert stats["p50_us"] == 4.0  # ceil(3.5) = rank 4
    assert stats["p90_us"] == 7.0  # ceil(6.3) = rank 7, NOT rank 6
    assert stats["p99_us"] == 7.0
    stats = percentile_summary([i / 1e5 for i in range(1, 5)])
    assert stats["p50_us"] == 20.0  # ceil(2.0) = rank 2
    assert stats["p90_us"] == 40.0  # ceil(3.6) = rank 4
    single = percentile_summary([5e-6])
    assert set(single.values()) == {5.0}


@pytest.mark.parametrize("obj", ["register", "max", "snapshot", "naive"])
def test_stress_objects_validate(obj):
    report = run_stress(obj, threads=6, ops=12, seed=1)
    assert report.validated and report.ok
    assert report.lin_ok is True
    assert report.ops_completed == 6 * 12
    assert report.ops_per_sec > 0
    assert {"p50_us", "p90_us", "p99_us", "max_us"} <= set(
        report.latency["all"]
    )
    payload = report.to_payload()
    import json

    json.dumps(payload)  # JSONL-able
    assert payload["ops_completed"] == report.ops_completed


def test_stress_duration_mode_skips_validation_by_default():
    report = run_stress("register", threads=4, ops=None, duration=0.15)
    assert not report.validated
    assert report.lin_ok is None
    assert report.ops_completed > 0
    assert report.elapsed >= 0.1


def test_stress_zero_completed_ops_still_renders():
    """A run where nothing completes must report, not crash.  (An op
    budget below 1 and a duration <= 0 are rejected up front, so a
    nanosecond duration, past before any worker's first op, is the run
    that completes nothing.)"""
    report = run_stress("register", threads=2, ops=None, duration=1e-9)
    assert report.ops_completed == 0
    assert "0" in report.render()  # renders without KeyError
    assert report.to_payload()["ops_per_sec"] == 0.0


def test_stress_snapshot_role_counts_match_spawned_threads():
    """Snapshot spawns one updater per component; the report must say so."""
    report = run_stress("snapshot", readers=2, ops=5)
    assert (report.readers, report.writers, report.auditors) == (2, 1, 0)
    assert report.ops_completed == report.threads * 5


def test_stress_requires_some_budget():
    with pytest.raises(ValueError):
        run_stress("register", threads=4, ops=None, duration=None)
    for ops in (0, -5):
        with pytest.raises(ValueError, match="at least one op"):
            run_stress("register", threads=2, ops=ops)
    # A run given no time completes no ops: a PASS on it would be
    # better than its evidence.
    for duration in (0, -1):
        with pytest.raises(ValueError, match="positive duration"):
            run_stress("register", threads=2, ops=5, duration=duration)
    with pytest.raises(ValueError):
        run_stress("flux-capacitor", threads=4)


# -- CLI ---------------------------------------------------------------------


def test_cli_stress_smoke_exits_zero(capsys):
    assert cli_main(["stress", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "ops/sec" in out
    assert "history linearizable" in out


def test_cli_stress_smoke_combines_with_process_runtime(capsys):
    """--smoke leaves --runtime orthogonal, so CI can smoke either
    backend with one flag."""
    assert cli_main(["stress", "--smoke", "--runtime", "process"]) == 0
    out = capsys.readouterr().out
    assert "4 processes" in out
    assert "[PASS] history linearizable" in out
    assert "[PASS] audit exactness" in out


def test_cli_stress_acceptance_command(capsys):
    """The acceptance criterion, literally."""
    assert cli_main(
        ["stress", "--object", "register", "--threads", "8"]
    ) == 0
    out = capsys.readouterr().out
    assert "[PASS] history linearizable" in out
    assert "[PASS] audit exactness" in out


@pytest.mark.parametrize("runtime", ["thread", "process"])
def test_cli_stress_without_auditors_builds_no_audit_oracle(
    runtime, tmp_path, capsys
):
    """The audit oracle judges only audit responses: a roster with no
    auditor gets none, so no audit line and no resident pairs, while
    an auditor-bearing run is still judged."""
    import json

    out_file = tmp_path / "stress.jsonl"
    for threads in ("2", "3"):
        assert cli_main([
            "stress", "--threads", threads, "--ops", "30", "--online",
            "--runtime", runtime, "--out", str(out_file),
        ]) == 0
    bare_out, audited_out = capsys.readouterr().out.split("== stress")[1:]
    bare, audited = map(json.loads, out_file.read_text().splitlines())
    assert bare["auditors"] == 0 and bare["audit_ok"] is None
    assert "audit_resident_pairs" not in bare["stream"]
    assert "audit exactness" not in bare_out
    assert audited["auditors"] == 1 and audited["audit_ok"] is True
    assert audited["stream"]["audits_checked"] == 30
    assert "[PASS] audit exactness (30 audits" in audited_out


def test_cli_stress_writes_jsonl_record(tmp_path, capsys):
    out_file = tmp_path / "stress.jsonl"
    assert cli_main(
        ["stress", "--smoke", "--out", str(out_file)]
    ) == 0
    capsys.readouterr()
    import json

    lines = out_file.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["object"] == "register"
    assert record["lin_ok"] is True


def test_module_version_flag_exits_zero():
    """Satellite: ``python -m repro --version`` exits 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--version"],
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    from repro import __version__

    assert proc.stdout.strip() == __version__


def test_console_script_entry_point_declared():
    """pyproject declares the ``repro`` console script + setup.py shim."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    assert '[project.scripts]' in pyproject
    assert 'repro = "repro.__main__:main"' in pyproject
    assert (REPO_ROOT / "setup.py").exists()
