"""Self-tests of the benchmark: determinism, verdict gates, tracing.

    python3 perfbench/selftest.py        # from the checkout root, ~40 s

Standard-library ``unittest``; the file name keeps it out of the
repository's pytest collection.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import tempfile
import unittest
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import (  # noqa: E402
    LAYERS,
    PER_LAYER,
    RUNTIME_SEAMS,
    SPAN_SEAMS,
    Profile,
    Tracer,
)
from workloads import (  # noqa: E402
    EXPECTED_EXPLORE,
    WORKLOADS,
    Explore,
    ServeAudit,
    StressProcessChaos,
    StressThread,
    generate_serve_log,
    sha256_file,
)

#: sha256 of the serve-audit log for seed 1 at the benchmark's size.
SERVE_LOG_SHA256 = {
    1: "66f63fb975b61859cf6b72d82d4db730792705b7790d9761784a3086fab7ff4a",
}

#: A seed not used while the benchmark was written.
FRESH_SEED = 7919


class BenchTestCase(unittest.TestCase):
    def setUp(self) -> None:
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)

    def tearDown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class DeterminismTest(BenchTestCase):
    def test_serve_log_is_byte_identical_per_seed(self) -> None:
        digests = []
        for rep in range(2):
            path = os.path.join(self.work, f"log-{rep}.jsonl")
            generate_serve_log(1, ServeAudit.ops_per_process, path)
            digests.append(sha256_file(path))
        self.assertEqual(digests, [SERVE_LOG_SHA256[1]] * 2)

    def test_explore_counts_repeat(self) -> None:
        workload = Explore(1, self.work)
        first, second = workload.job(0), workload.job(0)
        self.assertTrue(first.ok, first.reason)
        self.assertTrue(second.ok, second.reason)
        self.assertEqual(first.extras, second.extras)
        self.assertEqual(
            first.extras["distinct_states"],
            sum(states for _, states in EXPECTED_EXPLORE.values()),
        )


class FreshSeedTest(BenchTestCase):
    """Every workload's verdict gate passes on an unseen seed."""

    def check(self, name: str) -> None:
        workload = WORKLOADS[name](FRESH_SEED, self.work)
        out = os.path.join(self.work, "setup.out")
        workload.setup(out)
        if isinstance(workload, ServeAudit):
            # The stress workloads' prepare() would pin this process.
            workload.prepare(out)
        result = workload.job(0)
        self.assertTrue(result.ok, f"{name}: {result.reason}")
        self.assertEqual(result.units, workload.units_per_job)
        self.assertGreater(result.units, 0)

    def test_stress_thread(self) -> None:
        self.check("stress-thread")

    def test_stress_process_chaos(self) -> None:
        self.check("stress-process-chaos")

    def test_serve_audit(self) -> None:
        self.check("serve-audit")

    def test_explore(self) -> None:
        self.check("explore")


class FailedJobTest(BenchTestCase):
    def test_a_job_that_raises_fails_all_its_units(self) -> None:
        workload = StressThread(FRESH_SEED, self.work)

        def boom(k: int):
            raise RuntimeError("injected")

        workload.job = boom
        plain, _ = run._measure(workload, 0.0, False, None)
        self.assertEqual(len(plain), workload.min_jobs)
        for job in plain:
            self.assertFalse(job.ok)
            self.assertEqual(job.units, 2 * StressThread.ops_per_worker)


class DroppingTracer(Tracer):
    """Loses one worker's span file, as a worker killed before it wrote
    the file would."""

    def take(self):
        workers = sorted(glob.glob(os.path.join(self.spans_dir, "worker-*")))
        os.unlink(workers[0])
        return super().take()


class TracingTest(BenchTestCase):
    def test_traced_job_reconciles_and_restores_seams(self) -> None:
        from repro.memory.base import BaseObject

        original = BaseObject.__dict__["apply"]
        tracer = Tracer(os.path.join(self.work, "spans"))
        result, profile = run._traced_job(
            StressThread(FRESH_SEED, self.work), tracer, 0
        )
        self.assertIs(BaseObject.__dict__["apply"], original)
        self.assertTrue(result.ok, result.reason)
        ok, detail = profile.reconcile()
        self.assertTrue(ok, detail)
        self.assertEqual(
            sorted(t.kind for t in profile.timelines),
            ["main", "thread", "thread"],
        )
        self.assertEqual(len(profile.runs), 1)
        metrics = profile.metrics(result.extras, 0.0)
        self.assertGreater(metrics["memory.apply_calls"], 0)
        # The thread workload bypasses these layers entirely.
        for name in ("audit_oracle.audits_checked", "faults.decide_calls",
                     "rt.process.idle_waits", "mc.executions"):
            self.assertEqual(metrics[name], 0, name)

    def test_process_job_reconciles_only_with_every_span_file(self) -> None:
        for tracer_class, whole in ((Tracer, True), (DroppingTracer, False)):
            tracer = tracer_class(os.path.join(self.work, "spans"))
            result, profile = run._traced_job(
                StressProcessChaos(FRESH_SEED, self.work), tracer, 0
            )
            self.assertTrue(result.ok, result.reason)
            ok, detail = profile.reconcile()
            self.assertEqual(ok, whole, detail)
            if not whole:
                self.assertIn("timelines", detail)

    def test_runtime_clock_bounds_the_timelines(self) -> None:
        tracer = Tracer(os.path.join(self.work, "spans"))
        result, profile = run._traced_job(
            StressThread(FRESH_SEED, self.work), tracer, 0
        )
        self.assertTrue(profile.reconcile()[0])
        kinds, elapsed, span_s = profile.runs[0]
        # A runtime that ran a second longer than its threads were traced.
        profile.runs = [(kinds, span_s + 1.0, span_s + 1.0)]
        ok, detail = profile.reconcile()
        self.assertFalse(ok)
        self.assertIn("runtime elapsed", detail)

    def test_explore_primitive_counts_follow_the_history(self) -> None:
        # mc.explore restores checkpoints mid-operation, truncating the
        # history's records in place; the traced counts must be those
        # the history holds at each response.
        from repro.mc import explorer, scenarios
        from repro.sim.history import History

        ops: Counter = Counter()
        prims: Counter = Counter()
        most: Counter = Counter()
        original = History.__dict__["record_response"]

        def counting(history, pid, op_id, name, result):
            n = len(history._ops[(pid, op_id)].primitives)
            ops[name] += 1
            prims[name] += n
            most[name] = max(most[name], n)
            return original(history, pid, op_id, name, result)

        History.record_response = counting
        tracer = Tracer(os.path.join(self.work, "spans"))
        try:
            tracer.install()
            timeline = tracer.begin("main")
            factory, check = scenarios.get_scenario("alg1-w1-r1")()
            report = explorer.explore(factory, check)
            tracer.end(timeline, 0.0)
        finally:
            tracer.uninstall()
            History.record_response = original
        self.assertTrue(report.ok)
        self.assertGreater(report.restores, 0)
        counts = tracer.take()[0][0].counts
        for name in ("read", "write"):
            self.assertEqual(counts["ops." + name], ops[name], name)
            self.assertEqual(counts["prims." + name], prims[name], name)
        # The paper's bound: a read applies at most 3 primitives.
        self.assertLessEqual(most["read"], 3)

    def test_unbalanced_span_fails_reconciliation(self) -> None:
        profile = Profile([], wall_s=1.0, orphan_s=0.5, runs=[], expected={})
        self.assertFalse(profile.reconcile()[0])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            list(PER_LAYER),
        )
        self.assertEqual(
            [w["name"] for w in bench["workloads"]], list(WORKLOADS)
        )
        self.assertEqual(len(set(LAYERS)), len(LAYERS))
        # Every traced layer has a row in the table.
        traced = {layer for _, _, layer in SPAN_SEAMS}
        traced |= {layer for _, _, layer, _ in RUNTIME_SEAMS}
        self.assertLessEqual(traced, set(LAYERS))


if __name__ == "__main__":
    unittest.main()
