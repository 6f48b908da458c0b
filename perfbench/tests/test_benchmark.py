#!/usr/bin/env python3
"""End-to-end self-check of the request-path benchmark.

    python3 perfbench/tests/test_benchmark.py      (from the repository root)

Runs the benchmark command briefly on every workload of BENCHMARK.json and
checks the ledger it writes: every layer span nests under its request span,
every per-layer metric is reported on every workload (with
bench.unattributed_share among them), every end-to-end metric is reported
untraced, and one seed always produces the same request stream. Builds the
benchmark first if needed, like the command itself.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (the benchmark's own runner: build dir, spans file)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SECONDS = "2"


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def read_spans(path):
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        return [dict(zip(header, line.rstrip("\n").split("\t"))) for line in f]


class TracedRun(unittest.TestCase):
    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines, result = bench(w["name"], 5, 1)
                self.assertEqual(code, 0, "\n".join(lines[-30:]))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, "per-layer metrics and units")
                self.assertIn("check  ledger.layers                pass", "\n".join(lines))
                self.check_spans(read_spans(os.path.join(run.build_dir(), "spans.tsv")))

    def check_spans(self, spans):
        roots = {s["trace"]: s for s in spans if s["parent"] == "0"}
        self.assertTrue(roots)
        self.assertEqual({s["name"] for s in roots.values()}, {"request", "connect"})
        children = 0
        for s in spans:
            if s["parent"] == "0":
                continue
            children += 1
            root = roots.get(s["trace"])
            self.assertIsNotNone(root, "span %s has no root" % s)
            self.assertEqual(s["parent"], root["span"], "span %s is not under its root" % s)
            self.assertGreaterEqual(int(s["start_ns"]), int(root["start_ns"]))
        self.assertGreater(children, len(roots))


class UntracedRun(unittest.TestCase):
    def test_end_to_end_metrics_and_digest(self):
        digests = []
        for seed in (9, 9, 10):
            code, lines, result = bench("info_hot", seed, 0)
            self.assertEqual(code, 0, "\n".join(lines[-30:]))
            want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
            digest = [m.group(1) for m in map(re.compile(r"stream digest (\w+)").search, lines) if m]
            digests.append(digest[0])
        self.assertEqual(digests[0], digests[1], "one seed, one request stream")
        self.assertNotEqual(digests[0], digests[2], "another seed, another stream")


if __name__ == "__main__":
    unittest.main()
