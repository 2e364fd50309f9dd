"""B10 -- linearizability oracle throughput: fastlin vs the naive reference.

Every verdict the repository emits funnels through the linearizability
oracle, so this benchmark measures the PR's rewrite on the verdict
paths that actually run it:

- the **real E2 and E13 corpora**: every history the E2 seed sweep
  generates and every reduced-exploration execution of the E13 suite
  (with its post-hoc audit), checked by both checkers -- the verdict
  lists must be **byte-identical** (acceptance criterion);
- a **per-history-size ladder** on model-check-shaped histories (the
  E13 register scenario family scaled up under seeded schedules) and on
  real ``repro stress`` thread-runtime histories, where the bitmask
  search's asymptotic wins show: the >=5x acceptance target is measured
  at the production sizes of these two paths;
- the **P-compositionality ladder**: a violating multi-cell history
  whose global search must exhaust the cross-cell interleaving space
  while the partitioned checker only searches the guilty cell;
- the **batched verdict path**: the same jobs as one ``lin`` campaign
  section through ``run_section``, serially and across workers, with
  the JSONL checkpoints compared byte-for-byte;
- the **online ladder**: the streaming checker
  (:mod:`repro.analysis.streamlin`) against batch fastlin on the same
  stress histories (statuses must be identical), then live
  ``repro stress --online`` runs at two sizes -- the larger at least a
  million operations over multiple minutes in the full run, the
  smaller run ten times -- whose peak resident operation count must
  stay flat as the history grows 10x: the bounded-memory acceptance
  criterion.

Results land in ``BENCH_lin.json`` at the repository root and in the
pytest-benchmark ``extra_info``.  Tiny E13 scenario executions (3-5
operations) are interpreter-overhead-bound for *both* checkers; their
honest near-1x number is reported alongside the ladder, not hidden.

Smoke mode (``BENCH_LIN_SMOKE=1``, used by CI) shrinks every corpus
and asserts the new checker is no slower than the naive reference
(``legacy_check_history``) on the smoke corpus; the full run asserts
the >=5x ladder targets.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis.fastlin import (
    check_history,
    legacy_check_history,
    op_from_payload,
    op_to_payload,
)
from repro.analysis.specs import (
    auditable_max_register_spec,
    auditable_register_spec,
    register_array_spec,
)
from repro.campaign import Section, run_section
from repro.sim.history import OperationRecord
from repro.workloads.generators import RegisterWorkload, build_register_system

from conftest import _smoke_gate

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_lin.json"
SMOKE = _smoke_gate("BENCH_LIN_SMOKE")

E2_SHAPES = [
    dict(num_readers=1, num_writers=1, num_auditors=1,
         reads_per_reader=3, writes_per_writer=3, audits_per_auditor=2),
    dict(num_readers=2, num_writers=2, num_auditors=1,
         reads_per_reader=3, writes_per_writer=2, audits_per_auditor=2),
    dict(num_readers=3, num_writers=2, num_auditors=1,
         reads_per_reader=2, writes_per_writer=2, audits_per_auditor=1),
]
E2_SEEDS = range(6) if SMOKE else range(60)
CHECK_LADDER = (4,) if SMOKE else (4, 8, 16, 32, 48)
STRESS_LADDER = (3,) if SMOKE else (5, 10, 25, 50)
PARTITION_LADDER = (3,) if SMOKE else (3, 5, 7)


def _time(fn, reps: int = 3) -> float:
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _statuses_legacy(corpus):
    return ["ok" if legacy_check_history(o, s).ok else "fail"
            for o, s in corpus]


def _statuses_fast(corpus):
    return [check_history(o, s).status for o, s in corpus]


def _compare(corpus, reps: int = 3):
    """(legacy seconds, fastlin seconds, byte-identical verdicts)."""
    old = _statuses_legacy(corpus)
    new = _statuses_fast(corpus)
    identical = json.dumps(old) == json.dumps(new)
    t_old = _time(lambda: _statuses_legacy(corpus), reps)
    t_new = _time(lambda: _statuses_fast(corpus), reps)
    return t_old, t_new, identical


def _leg(corpus, reps: int = 3):
    t_old, t_new, identical = _compare(corpus, reps)
    return {
        "histories": len(corpus),
        "avg_ops": round(
            sum(len(o) for o, _ in corpus) / max(1, len(corpus)), 1
        ),
        "legacy_s": round(t_old, 5),
        "fastlin_s": round(t_new, 5),
        "speedup": round(t_old / t_new, 2) if t_new else 0.0,
        "verdicts_byte_identical": identical,
    }


# -- corpora ---------------------------------------------------------------

def _e2_corpus():
    """The E2 driver's histories: shapes x seeds, with their specs."""
    corpus = []
    for shape in E2_SHAPES:
        for seed in E2_SEEDS:
            workload = RegisterWorkload(seed=seed, **shape)
            built = build_register_system(workload)
            history = built.run()
            corpus.append((
                history.operations(),
                auditable_register_spec(workload.initial,
                                        built.reader_index),
            ))
    return corpus


def _e13_corpus():
    """Every reduced-exploration execution of the E13 suite, with the
    post-hoc audit the scenario checks append -- the exact histories the
    model checker's verdict collection hands the oracle."""
    from repro.mc import explore
    from repro.mc.scenarios import E13_SUITE, get_scenario

    suite = E13_SUITE[:3] if SMOKE else E13_SUITE
    corpus = []
    for _title, key in suite:
        factory, _check = get_scenario(key)()
        is_max = key.startswith("alg2")

        def collect(sim, reg, _is_max=is_max):
            post = reg.auditor(
                sim.spawn(f"bench-auditor-{sim.steps_taken}")
            )
            sim.add_program(post.pid, [post.audit_op()])
            sim.run_process(post.pid)
            # Payload round-trip detaches the records from the live,
            # backtracked simulation.
            ops = [
                op_from_payload(op_to_payload(op))
                for op in sim.history.operations()
            ]
            reader_index = {
                f"r{j}": j for j in range(reg.num_readers)
            }
            spec = (
                auditable_max_register_spec(0, reader_index)
                if _is_max
                else auditable_register_spec(reg.initial, reader_index)
            )
            corpus.append((ops, spec))
            return None

        explore(factory, collect)
    return corpus


def _check_path_corpus(reads_per_reader):
    """E13-family register scenarios scaled to production ``repro
    check`` sizes under seeded schedules (exhaustive exploration of
    these is out of reach; the oracle cost per history is what scales)."""
    corpus = []
    for seed in range(3 if SMOKE else 6):
        workload = RegisterWorkload(
            num_readers=2, num_writers=1, num_auditors=1,
            reads_per_reader=reads_per_reader,
            writes_per_writer=reads_per_reader,
            audits_per_auditor=max(1, reads_per_reader // 2),
            seed=seed,
        )
        built = build_register_system(workload)
        corpus.append((
            built.run().operations(),
            auditable_register_spec(workload.initial, built.reader_index),
        ))
    return corpus


def _stress_corpus(ops_per_thread):
    """Real thread-runtime histories, exactly what ``repro stress``
    post-validates."""
    from repro.rt.stress import _build, stress_meta

    r, w, a = (1, 2, 1) if SMOKE else (3, 4, 1)
    runtime = _build(stress_meta("register", r, w, a, seed=0), ops_per_thread)
    history = runtime.run(duration=None)
    return [(
        history.operations(),
        auditable_register_spec("v0", {f"r{j}": j for j in range(r)}),
    )]


def _partition_corpus(cells):
    """A violating read in one cell, mutually concurrent writes in all:
    the unpartitioned search exhausts the cross-cell space, the
    partitioned one only searches the guilty cell."""
    spec = register_array_spec(0)
    ops = []
    for cell in range(cells):
        for k in range(2):
            ops.append(OperationRecord(
                pid=f"p{cell}", op_id=k, name="write",
                args=(cell, k + 1), invoke_index=cell * 2 + k,
                response_index=100 + cell * 2 + k,
            ))
    ops.append(OperationRecord(
        pid="r", op_id=0, name="read", args=(0,),
        invoke_index=cells * 2, response_index=99, result=99,
    ))
    return [(ops, spec)]


# -- the benchmark ---------------------------------------------------------

def test_bench_lin_throughput(benchmark, tmp_path):
    payload = {"bench": "b10_lin_throughput", "smoke": SMOKE}

    # The real corpora: byte-identical verdicts are an acceptance
    # criterion, speedups at these (small) sizes are reported honestly.
    e2 = _e2_corpus()
    e13 = _e13_corpus()
    payload["e2_corpus"] = _leg(e2)
    payload["e13_corpus"] = _leg(e13)
    assert payload["e2_corpus"]["verdicts_byte_identical"]
    assert payload["e13_corpus"]["verdicts_byte_identical"]

    # Per-history-size ladders on the two verdict paths.
    payload["check_path_ladder"] = []
    for reads_per_reader in CHECK_LADDER:
        leg = _leg(_check_path_corpus(reads_per_reader))
        leg["reads_per_reader"] = reads_per_reader
        assert leg["verdicts_byte_identical"]
        payload["check_path_ladder"].append(leg)

    payload["stress_path_ladder"] = []
    stress_corpora = {}
    for ops_per_thread in STRESS_LADDER:
        corpus = _stress_corpus(ops_per_thread)
        stress_corpora[ops_per_thread] = corpus
        leg = _leg(corpus)
        leg["ops_per_thread"] = ops_per_thread
        assert leg["verdicts_byte_identical"]
        payload["stress_path_ladder"].append(leg)

    # The benchmark fixture times the headline path: fastlin over the
    # largest stress history.
    top_stress = stress_corpora[max(STRESS_LADDER)]
    benchmark.pedantic(
        lambda: _statuses_fast(top_stress), rounds=3, iterations=1
    )

    # P-compositionality: exponential global search vs per-cell checks.
    payload["partitioned_ladder"] = []
    for cells in PARTITION_LADDER:
        corpus = _partition_corpus(cells)
        t_old, t_new, _ = _compare(corpus, reps=2)
        ops, spec = corpus[0]
        fast = check_history(ops, spec)
        legacy = legacy_check_history(ops, spec)
        payload["partitioned_ladder"].append({
            "cells": cells,
            "ops": len(ops),
            "legacy_s": round(t_old, 5),
            "fastlin_s": round(t_new, 5),
            "speedup": round(t_old / t_new, 2) if t_new else 0.0,
            "legacy_nodes": legacy.explored,
            "fastlin_nodes": fast.explored,
        })
        assert fast.ok == legacy.ok is False

    # The batched verdict path (a ``lin`` campaign section): serial vs
    # parallel, byte-identical checkpoints (the engine's determinism
    # contract).  Each job is a self-contained record: its reader
    # indices are re-derived from the history itself.
    jobs = []
    for corpus in (e2[: 12 if SMOKE else 60], top_stress):
        for ops, spec in corpus:
            jobs.append({
                "history": [op_to_payload(op) for op in ops],
                "spec": "auditable_register",
                "spec_params": {
                    "initial": "v0" if spec.initial[0] == "v0" else 0,
                    "reader_index": {
                        op.pid: int(op.pid[1:])
                        for op in ops if op.pid.startswith("r")
                    },
                },
            })
    section = Section("batched", "lin").axis("history", *jobs)
    workers = 1 if SMOKE else min(4, os.cpu_count() or 1)
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    t_serial = _time(lambda: run_section(
        section, workers=1, checkpoint=str(serial_path), resume=False
    ), reps=1)
    t_parallel = _time(lambda: run_section(
        section, workers=workers, checkpoint=str(parallel_path),
        resume=False,
    ), reps=1)
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    payload["batched"] = {
        "jobs": len(jobs),
        "serial_s": round(t_serial, 4),
        "parallel_s": round(t_parallel, 4),
        "workers": workers,
        "checkpoints_byte_identical": True,
    }

    # The online ladder, part 1: streaming == batch on the stress
    # corpora (event-for-event differential at bench scale), with the
    # residency the streaming checker needed.
    from repro.analysis.streamlin import check_history_streaming
    from repro.rt.stress import run_stress

    payload["online_ladder"] = []
    for ops_per_thread in STRESS_LADDER:
        corpus = stress_corpora[ops_per_thread]
        t_batch = _time(lambda: _statuses_fast(corpus), reps=2)
        t_stream = _time(lambda: [
            check_history_streaming(ops, spec).status
            for ops, spec in corpus
        ], reps=2)
        streamed = [check_history_streaming(ops, spec) for ops, spec in corpus]
        statuses = [v.status for v in streamed]
        assert statuses == _statuses_fast(corpus)
        payload["online_ladder"].append({
            "ops_per_thread": ops_per_thread,
            "ops": sum(len(ops) for ops, _ in corpus),
            "batch_s": round(t_batch, 5),
            "streaming_s": round(t_stream, 5),
            "peak_resident_ops": max(
                v.progress.peak_resident_ops for v in streamed
            ),
            "statuses_identical": True,
        })

    # Part 2: live online validation through the thread runtime -- the
    # configuration ``stress --online`` ships.  Two sizes, the larger
    # 10x the smaller (>=1M operations in the full run), and the peak
    # resident op count must not grow with the history: residency
    # tracks overlap width, not length.  A peak is the largest burst
    # the OS scheduler caused in the run (an op pinned open across a
    # GIL deschedule holds a few hundred completions resident), and a
    # longer run meets larger bursts.  So the smaller size runs 10
    # times and its peak is the largest of the 10: both sides are then
    # maxima over as many operations, and only a residency that grows
    # with run length separates them.
    small, large = (5_000, 50_000) if SMOKE else (100_000, 1_000_000)
    payload["online_stress"] = []
    peaks = []
    for total_ops, runs in ((small, large // small), (large, 1)):
        peak = 0
        for _ in range(runs):
            # Four threads: the overlap width real deployments run at.
            # Wider rosters can pin one op open across hundreds of
            # completions on six other chains, which makes exact online
            # checking blow its configuration budget (NP-hardness
            # showing up online); that degradation to UNDECIDED is
            # tested in test_streamlin.py, not benchmarked here.
            report = run_stress(
                "register", readers=2, writers=1, auditors=1,
                ops=total_ops // 4, seed=0, online=True,
                record_latency=False, join_watchdog=900.0,
            )
            assert report.lin_ok and report.audit_ok, report.stream
            assert report.stream["status"] == "ok"
            events = report.stream["events"]
            assert report.stream["frontier_index"] == events - 1
            peak = max(peak, report.stream["peak_resident_ops"])
        peaks.append(peak)
        payload["online_stress"].append({
            "total_ops": report.ops_completed,
            "runs": runs,
            "events": events,
            "elapsed_s": round(report.elapsed, 2),
            "ops_per_sec": round(report.ops_per_sec, 1),
            "peak_resident_ops": peak,
            "ops_retired": report.stream["ops_retired"],
            "frontier_complete": True,
            "status": report.stream["status"],
        })
    # Bounded memory: 10x the operations, the same residency ballpark.
    # The floor covers the scheduler bursts above; the ratio is what
    # rules out length-proportional growth.
    assert peaks[1] <= max(4 * peaks[0], 512), peaks
    benchmark.extra_info["online_peak_resident_ops"] = peaks[1]

    # Headline acceptance numbers.
    check_top = payload["check_path_ladder"][-1]
    stress_top = payload["stress_path_ladder"][-1]
    payload["headline"] = {
        "speedup_check_verdict_path": check_top["speedup"],
        "speedup_stress_verdict_path": stress_top["speedup"],
        "note": "measured at the top of each size ladder; tiny E13 "
        "scenario executions (3-5 ops) are interpreter-bound for both "
        "checkers, see e13_corpus for the honest small-history number",
    }
    for key, value in payload["headline"].items():
        if isinstance(value, (int, float)):
            benchmark.extra_info[key] = value
    benchmark.extra_info["out"] = str(OUT_PATH)

    if SMOKE:
        # CI gate: the rewrite must never be slower than the naive
        # reference on the smoke corpus (combined across legs).
        total_old = sum(
            leg["legacy_s"]
            for leg in [payload["e2_corpus"], payload["e13_corpus"]]
            + payload["check_path_ladder"]
            + payload["stress_path_ladder"]
        )
        total_new = sum(
            leg["fastlin_s"]
            for leg in [payload["e2_corpus"], payload["e13_corpus"]]
            + payload["check_path_ladder"]
            + payload["stress_path_ladder"]
        )
        # 20% margin: the smoke corpora are millisecond-scale and the
        # tiny-history legs run within a few percent of the reference,
        # so a strict inequality would flake on noisy shared runners.
        assert total_new <= 1.2 * total_old, (
            f"fastlin slower than the naive reference on the smoke "
            f"corpus: {total_new:.4f}s vs {total_old:.4f}s"
        )
    else:
        assert check_top["speedup"] >= 5.0, check_top
        assert stress_top["speedup"] >= 5.0, stress_top
        OUT_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        assert OUT_PATH.exists()
