"""Tests of the benchmark itself; pytest does not collect this file.

  python3 perfbench/selftest.py      # from the repository root, about 5 min

They run the benchmark through its command line and assert that count metrics
repeat exactly across two traced runs, that per-layer self times plus the
unattributed remainder add up to the traced wall time, that a stratum
corpus depends on the seed and only on it, and that the benchmark refuses
to run without the program next to it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import corpus
import run
import spans


def bench(workload: str, seed: int, trace: int, cwd: str = run.ROOT):
    script = os.path.join(os.path.relpath(run.BENCH, run.ROOT), "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)
    return proc


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CorpusTest(unittest.TestCase):
    def test_seed_decides_corpus(self):
        strata = corpus.load_strata(os.path.join(run.BENCH, "strata.json"))
        one = corpus.build(strata, 7)
        self.assertEqual(one, corpus.build(strata, 7))
        other = corpus.build(strata, 8)
        self.assertNotEqual([c["index_set"] for c in one],
                            [c["index_set"] for c in other])
        self.assertEqual(len(one), 200)
        dims = {c["kernel_dim"] for c in one}
        self.assertEqual(dims, set(range(8)))


class TracedRunsTest(unittest.TestCase):
    def check_repeats(self, workload: str):
        runs = []
        for _ in range(2):
            proc = bench(workload, 3, 1)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            runs.append(result(proc))
        first, second = (r["metrics"] for r in runs)
        self.assertTrue(all(r["correct"] for r in runs))
        for key in run.COUNT_METRICS:
            self.assertEqual(first[key], second[key], key)
        self.assertEqual(runs[0]["failed"], runs[1]["failed"])
        for metrics in (first, second):
            layers = sum(metrics[f"{layer}.self_s"]["value"]
                         for layer in spans.LAYERS)
            total = layers + metrics["trace.unattributed_s"]["value"]
            self.assertAlmostEqual(total, metrics["trace.wall_s"]["value"],
                                   places=6)
        return first

    def test_census_json(self):
        m = self.check_repeats("census-json")
        self.assertEqual(m["sweep.strata_emitted"]["value"], 52360)
        self.assertEqual(m["quadruples.classify_calls"]["value"], 0)

    def test_census_classify(self):
        m = self.check_repeats("census-classify")
        self.assertEqual(m["sweep.strata_enumerated"]["value"], 324632)
        self.assertEqual(m["sweep.strata_emitted"]["value"], 2782)

    def test_stratum_analysis(self):
        m = self.check_repeats("stratum-analysis")
        self.assertGreater(m["cross_sections.delta_domain_calls"]["value"], 0)
        self.assertEqual(m["sweep.strata_enumerated"]["value"], 0)


class NoProgramTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(run.WORK, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("census-json", 1, 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
