#!/usr/bin/env python3
"""Tests of the benchmark itself: its output check catches a wrong value,
and its work counts repeat exactly for a repeated seed.

    python3 perfbench/test_bench.py
"""

import json
import os
import subprocess
import unittest

import run

TMP = os.path.join(run.BUILD, "tmp")
REFERENCE = os.path.join(run.HERE, "reference.tsv")

# Exact per-workload counts of a traced run (everything but times).
COUNT_METRICS = ("distance.matrix_mb", "mapping.cost", "mapping.cost_ratio",
                 "core.reorders", "core.cache_hits", "simmpi.stages",
                 "simmpi.transfers")


def bench(workload, seed=1, seconds=1, trace=0, reference=REFERENCE):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--reference", reference, "--tmp-dir", TMP],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perturbed_reference(key):
    """Copy of the reference with `key`'s value scaled by 1 + 1e-6."""
    os.makedirs(TMP, exist_ok=True)
    path = os.path.join(TMP, "perturbed_reference.tsv")
    found = False
    with open(REFERENCE) as src, open(path, "w") as dst:
        for line in src:
            k, v = line.split()
            if k == key:
                v, found = repr(float(v) * (1 + 1e-6)), True
            dst.write("%s\t%s\n" % (k, v))
    assert found, key
    return path


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_clean_run_passes(self):
        r = bench("app_hier_1k")
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 0)

    def test_perturbed_latency_is_caught(self):
        # The most frequent input of the application trace: every run draws it.
        ref = perturbed_reference(
            "app_hier_1k:lat/block-bunch/binomial/default/1024")
        r = bench("app_hier_1k", reference=ref)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)

    def test_perturbed_mapping_cost_is_caught(self):
        # Checked once per run, on the warm-up reorder.
        ref = perturbed_reference(
            "app_hier_1k:cost/block-bunch/binomial/Hrstc/rd")
        r = bench("app_hier_1k", reference=ref)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)

    def test_same_seed_gives_identical_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = bench(workload, seed=7, trace=1)
                b = bench(workload, seed=7, trace=1)
                self.assertTrue(a["correct"] and b["correct"])
                for name in COUNT_METRICS:
                    self.assertEqual(a["metrics"][name], b["metrics"][name],
                                     name)


if __name__ == "__main__":
    unittest.main()
