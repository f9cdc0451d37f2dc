"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # everything, about 3 minutes
    python3 perfbench/selftest.py Fast     # the checks that take seconds

``Workloads`` runs every workload once traced and once untraced on
workload seed 0 and requires both to reproduce the pinned digests (so
the traced pass's outputs equal the entry point's) with root spans
covering at least 95% of the traced wall time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

workloads = bench.load_program()

from repro.exec import build_evaluator  # noqa: E402
from repro.platform.presets import perlmutter_like  # noqa: E402
from repro.schedule.space import DesignSpace  # noqa: E402
from repro.search.exhaustive import ExhaustiveSearch  # noqa: E402
from repro.sim.measure import MeasurementConfig  # noqa: E402
from repro.workloads import WorkloadSpec, build_workload  # noqa: E402
from pace import SpeedProbe  # noqa: E402
from spans import SpanRecorder, TracedEvaluator  # noqa: E402


class Fast(unittest.TestCase):
    def _evaluators(self, spec):
        program = build_workload(spec)
        machine = perlmutter_like().with_ranks(program.n_ranks)
        space = DesignSpace(program, n_streams=2)

        def make():
            return build_evaluator(program, machine, MeasurementConfig(max_samples=2))

        return space, make

    def test_traced_evaluator_returns_identical_measurements(self):
        # wavefront replays on the batch engine; tree_allreduce is an MPI
        # program the reference engine simulates.
        for spec in (
            WorkloadSpec("wavefront", {"width": 2, "height": 2}),
            WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
        ):
            space, make = self._evaluators(spec)
            schedules = list(space.enumerate_schedules())
            plain = make()
            rec = SpanRecorder()
            traced = TracedEvaluator(make(), rec)
            self.assertEqual(
                plain.evaluate_batch(schedules), traced.evaluate_batch(schedules)
            )
            self.assertEqual(plain.n_simulations, traced.n_simulations)
            self.assertEqual(rec.counts["sim.schedules"], len(schedules))
            self.assertEqual(rec.counts["sim.fresh"], len(schedules))
            a = ExhaustiveSearch(space, make(), batch_size=7).run()
            b = ExhaustiveSearch(space, TracedEvaluator(make(), rec), batch_size=7).run()
            self.assertEqual(a.samples, b.samples)
            self.assertEqual(a.n_simulations, b.n_simulations)

    def test_self_time_excludes_children(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        times = rec.self_times()
        (_, s0, e0, _), (_, s1, e1, _) = rec.spans
        self.assertAlmostEqual(times["outer"], (e0 - s0) - (e1 - s1))
        self.assertEqual(rec.root_total(), e0 - s0)

    def test_tail_percentile(self):
        self.assertEqual(bench.tail(range(30)), (19, 100.0 * 20 / 30))
        self.assertEqual(bench.tail([3, 1, 2]), (3, 100.0))

    def test_benchmark_json_names_every_metric(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(bench.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(bench.PER_LAYER),
        )
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)
        )

    def test_fails_without_program_source(self):
        os.makedirs(bench.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(dir=bench.OUT_DIR)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"))
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "advise"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Workloads(unittest.TestCase):
    def test_traced_pass_matches_entry_points(self):
        pinned = bench.load_digests()
        os.makedirs(bench.OUT_DIR, exist_ok=True)
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                workdir = tempfile.mkdtemp(dir=bench.OUT_DIR)
                probe = SpeedProbe(os.path.join(workdir, "probe.txt"))
                try:
                    oracle = bench.Oracle(pinned[name]["0"])
                    metrics, _, _ = bench.trace_run(wl, 0, workdir, oracle, probe)
                finally:
                    probe.close()
                    shutil.rmtree(workdir)
                oracle.finish()
                self.assertEqual(oracle.failed, 0, oracle.mismatches)
                self.assertGreaterEqual(metrics["trace.coverage"], 0.95)
                self.assertGreater(metrics["sim.busy_s"], 0.0)
                self.assertGreater(metrics["search.self_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
