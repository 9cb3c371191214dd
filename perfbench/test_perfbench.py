#!/usr/bin/env python3
"""The benchmark's own test: small-size runs of every workload.

    python3 perfbench/test_perfbench.py

Checks, for each workload, that an untraced run reports every end-to-end
metric named in BENCHMARK.json and a traced run every per-layer metric, with
the units BENCHMARK.json gives; that error_rate is 0; that the traced mc
times add up as README.md states; and that a deliberately wrong expectation
makes error_rate > 0.  Also checks that a run is refused when its threads
exceed the affinity CPUs, and that the benchmark fails cleanly in a
directory holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT, cpus=None):
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", str(trace),
                                   "--small", *extra]
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          preexec_fn=pin)
    return proc, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1])


def printed_metric(lines, name):
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric" and parts[1] == name:
            return float(parts[2]), parts[3]
    raise AssertionError("no metric line for " + name)


class BenchmarkTest(unittest.TestCase):
    def check_run(self, workload, trace, defs):
        proc, lines = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(lines[0].startswith("stamp "), lines[0])
        stamp = json.loads(lines[0][len("stamp "):])
        for key in ("affinity_cpus", "affinity_mask", "compiler",
                    "build_type", "threads"):
            self.assertIn(key, stamp)
        self.assertLessEqual(stamp["threads"], stamp["affinity_cpus"])
        res = result_of(lines)
        self.assertEqual(sorted(res),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res["metrics"]), sorted(d["name"] for d in defs))
        for d in defs:
            m = res["metrics"][d["name"]]
            self.assertEqual(m["unit"], d["unit"], d["name"])
            value, unit = printed_metric(lines, d["name"])
            self.assertEqual(unit, d["unit"])
            self.assertAlmostEqual(value, m["value"],
                                   delta=1e-5 * abs(m["value"]) + 1e-12)
        self.assertEqual(printed_metric(lines, "error_rate"), (0.0, "ratio"))
        return res["metrics"]

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_run(w, 0, SPEC["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = {k: v["value"] for k, v in
                     self.check_run(w, 1, SPEC["per_layer"]).items()}
                if not w.startswith("mc_"):
                    self.assertGreater(m["stream.poll_drain_s"], 0.0)
                    self.assertGreater(m["checker.feed_batch_s"], 0.0)
                    self.assertAlmostEqual(
                        m["stream.push_s"] + m["stream.report_poll_s"] +
                        m["stream.generator_wait_s"],
                        m["stream.traced_batch_s"], places=9)
                    continue
                self.assertGreater(m["mc.explore_s"], 0.0)
                self.assertGreater(m["protocol.apply_calls"], 0.0)
                self.assertAlmostEqual(
                    m["mc.traced_setup_s"] + m["mc.explore_s"] +
                    m["mc.rerun_s"], m["mc.traced_time_to_verdict_s"],
                    places=9)
                phases = (m["mc.expand_cpu_s"] + m["mc.canonicalize_cpu_s"] +
                          m["mc.dedup_cpu_s"] + m["mc.materialize_cpu_s"])
                # Both workloads report a 2-worker pool pass, except that a
                # violation reports the 1-worker re-run.
                threads = 1 if w == "mc_hunt_msi_buggy" else 2
                self.assertAlmostEqual(
                    (phases + m["mc.unphased_cpu_s"]) / threads,
                    m["mc.explore_s"], places=9)
                protocol = (m["protocol.enumerate_s"] + m["protocol.apply_s"] +
                            m["protocol.could_load_bottom_s"] +
                            m["protocol.por_hooks_s"])
                self.assertAlmostEqual(
                    protocol + m["mc.expand_residual_cpu_s"],
                    m["mc.expand_cpu_s"], places=9)

    def test_wrong_expectation_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, lines = run(w, 0, "--wrong-expectation")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                res = result_of(lines)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertGreater(printed_metric(lines, "error_rate")[0], 0.0)

    def test_refuses_oversubscription(self):
        one_cpu = {min(os.sched_getaffinity(0))}
        proc, lines = run("stream_mixed", 0, cpus=one_cpu)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("refusing an oversubscribed run", proc.stderr)
        self.assertFalse(lines[-1].startswith("{"))

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test_bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        try:
            proc, lines = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
