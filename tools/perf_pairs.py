#!/usr/bin/env python3
"""Alternating parent/change runs of the repository benchmark.

    python3 tools/perf_pairs.py --parent DIR --change DIR [--workload NAME]
                                [--pairs N] [--seed S] [--seconds S] [--small]

DIR is the root of a checkout (the one holding BENCHMARK.json and
perfbench/).  For each workload (every one in the change's BENCHMARK.json
unless --workload names some), runs the benchmark command N times in each
checkout, alternating which side runs first in each pair, then prints, for
every end-to-end metric, each side's median [q1, q3], the number of pairs
in which the change was better in the metric's "better" direction, and each
side's failed/attempted operations.  Exit status 1 if any run reported a
failed operation, 2 if a run gave no result.

perfbench timings move with the length of the checkout's path (it shifts
the binary's layout), so compare two checkouts whose paths have the same
length; the tool warns when they differ.
"""
import argparse
import json
import os
import subprocess
import sys


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_once(root, command, workload, args):
    cmd = list(command) + ["--workload", workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", "0"]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        print("perf_pairs: %s in %s exited with status %d and no result" %
              (workload, root, proc.returncode), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(workload, metrics, results):
    print(workload)
    row = "  %-22s %-40s %-40s %s"
    print(row % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                 "change better"))
    for m in metrics:
        name = m["name"]
        cells = []
        for side in ("parent", "change"):
            vs = [r["metrics"][name]["value"] for r in results[side]]
            cells.append("%.4g [%.4g, %.4g] %s" % (
                quantile(vs, 0.5), quantile(vs, 0.25), quantile(vs, 0.75),
                m["unit"]))
        better = 0
        for p, c in zip(results["parent"], results["change"]):
            pv = p["metrics"][name]["value"]
            cv = c["metrics"][name]["value"]
            better += (cv < pv) if m["better"] == "lower" else (cv > pv)
        print(row % (name, cells[0], cells[1],
                     "%d/%d" % (better, len(results["change"]))))
    counts = ["%s %d/%d" % (side, sum(r["failed"] for r in results[side]),
                            sum(r["attempted"] for r in results[side]))
              for side in ("parent", "change")]
    print("  failed/attempted: " + ", ".join(counts))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if len(roots["parent"]) != len(roots["change"]):
        print("perf_pairs: warning: checkout paths differ in length (%d vs "
              "%d); timings can move with path length" %
              (len(roots["parent"]), len(roots["change"])), file=sys.stderr)
    print("perf_pairs: parent %s, change %s, %d pairs, seed %d, %g s" %
          (roots["parent"], roots["change"], args.pairs, args.seed,
           args.seconds))
    ok = True
    for workload in workloads:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                r = run_once(roots[side], spec["command"], workload, args)
                if r is None:
                    return 2
                results[side].append(r)
                ok = ok and r["failed"] == 0
        report(workload, spec["end_to_end"], results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
