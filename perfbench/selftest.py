"""Self-test of the benchmark's recorder, counters and exit behaviour.

    python3 perfbench/selftest.py

Runs every workload traced, on a short step budget, twice on one seed, and
checks that:

* every count (calls, packets, detections, state sizes) repeats exactly;
* spans nest inside their parents and siblings do not overlap, so no self
  time is negative or counted twice, and the root span covers the whole
  operation, so no traced time falls outside every span;
* every per-layer metric in ``workloads.PREDICTIONS`` is nonzero on the
  workloads where it is listed as doing work, and zero where listed so;
* a hook target missing from the package, or a step hook the package no
  longer reaches, stops the measurement instead of reading zero;
* without the package source next to it the benchmark exits nonzero
  without printing a result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

run._import_package()
import tracer  # noqa: E402
from tracer import Probe, ROOT_SPAN, layer_metrics, self_times  # noqa: E402
from workloads import PREDICTIONS, WORKLOADS  # noqa: E402

# Long enough for every listed layer to do work on its workload.
SHORT_STEPS = {"sim2d-pheromone": 150, "sim2d-odometry": 8,
               "team8-levy": 150, "hardware-table": 100}


def trace_twice(name):
    w = replace(WORKLOADS[name], steps=SHORT_STEPS[name])
    cfg = w.make_config()
    seed = w.seeds(0)[0]
    checker = run.Checker(w.steps, cfg.n_targets)
    probe = Probe(traced=True)
    counts, walls = [], []
    for _ in range(2):
        with probe:
            ok, wall = run.run_op(w, cfg, seed, checker, probe)
        assert ok, checker.errors
        counts.append(dict(probe.counts))
        walls.append(wall)
    total = Counter(counts[0]) + Counter(counts[1])
    metrics = layer_metrics(probe.spans, total, 2 * w.steps, 2)
    return counts, walls, probe.spans, metrics


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {name: trace_twice(name) for name in WORKLOADS}

    def test_counts_repeat_exactly(self):
        for name, (counts, _, _, _) in self.runs.items():
            with self.subTest(workload=name):
                self.assertTrue(counts[0])
                self.assertEqual(counts[0], counts[1])

    def test_spans_nest_and_cover_the_operation(self):
        for name, (_, walls, spans, _) in self.runs.items():
            with self.subTest(workload=name):
                last_end = {}     # parent index -> end of its latest child
                for rec in spans:
                    if rec[3] >= 0:
                        parent = spans[rec[3]]
                        self.assertGreaterEqual(rec[1], parent[1])
                        self.assertLessEqual(rec[2], parent[2])
                        self.assertGreaterEqual(rec[1],
                                                last_end.get(rec[3], 0))
                        last_end[rec[3]] = rec[2]
                self.assertGreaterEqual(int(self_times(spans).min()), 0)
                roots = [rec for rec in spans if rec[3] < 0]
                self.assertEqual([r[0] for r in roots], [ROOT_SPAN] * 2)
                root_ns = sum(r[2] - r[1] for r in roots)
                self.assertAlmostEqual(root_ns / 1e9, sum(walls),
                                       delta=0.01 * sum(walls))

    def test_predicted_layers_do_work(self):
        for p in PREDICTIONS:
            for name in p.works_on:
                metrics = self.runs[name][3]
                for m in p.metrics:
                    with self.subTest(row=p.row, workload=name, metric=m):
                        self.assertGreater(metrics[m][0], 0.0)
            for name in p.zero_on:
                metrics = self.runs[name][3]
                for m in p.metrics:
                    with self.subTest(row=p.row, workload=name, metric=m):
                        self.assertEqual(metrics[m][0], 0.0)

    def test_pheromone_share(self):
        self.assertEqual(self.runs["team8-levy"][3]["pheromone.share"][0],
                         0.0)
        self.assertGreater(
            self.runs["sim2d-odometry"][3]["pheromone.share"][0], 0.5)


class MissingHookTest(unittest.TestCase):
    def test_missing_target_raises_and_unpatches(self):
        from pherotrack import world
        orig = world.step_dynamics
        bogus = ("test.gone", "pherotrack.world", "no_such_function")
        saved = tracer.SPANS
        tracer.SPANS = saved + (bogus,)
        try:
            with self.assertRaises(LookupError):
                with Probe(traced=True):
                    pass
        finally:
            tracer.SPANS = saved
        self.assertIs(world.step_dynamics, orig)

    def test_unreached_step_hook_fails_the_operation(self):
        w = replace(WORKLOADS["team8-levy"], steps=5)
        cfg = w.make_config()
        checker = run.Checker(w.steps, cfg.n_targets)
        probe = Probe(traced=False)
        probe._post["world.step_dynamics"] = lambda _out: None
        with probe:
            ok, _ = run.run_op(w, cfg, 0, checker, probe)
        self.assertFalse(ok)
        self.assertEqual(checker.failed, 1)


class NoSourceTest(unittest.TestCase):
    def test_exits_nonzero_without_package_source(self):
        root = os.path.dirname(HERE)
        os.makedirs(run.RESULTS, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("results",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sim2d-pheromone", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
