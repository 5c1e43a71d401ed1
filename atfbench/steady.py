#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports the spread.

    python3 atfbench/steady.py [--runs 10] [--traced-runs 0]
                               [--workloads a,b] [--seed-base 1]

Run it from the repository root. Every run gets another seed. For each
end-to-end metric of BENCHMARK.json it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the interquartile range as a share of
the median ("spread") and that spread against the metric's bound. With
--traced-runs N it also makes N traced runs per workload and prints the
tracing overhead: the traced median of each end-to-end metric (taken from
the driver's stderr) against the untraced one. It also checks that the
share of failed operations is the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_PREFIX = "atfbench: traced end-to-end: "


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    traced = None
    for line in proc.stderr.splitlines():
        if line.startswith(TRACED_PREFIX):
            traced = json.loads(line[len(TRACED_PREFIX):])
    return result, traced


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    ok = True
    for workload in names:
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, _ = run_once(workload, seed, bench["run_seconds"], 0)
            results.append(result)
            print(f"{workload} seed {seed}: {json.dumps(result)}", flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        share_set = {f / a for f, a in shares}
        print(f"\n{workload}: failed/attempted {sorted(shares)}"
              f"{'' if len(share_set) == 1 else '  NOT CONSTANT'}")
        ok &= len(share_set) == 1 and all(r["correct"] for r in results)
        print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'spread/bound':>12s}")
        medians = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            medians[name] = med
            print(f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:7.4f} {bound:6.3f} {rel / bound:12.3f}")
        if args.traced_runs:
            traced = []
            for i in range(args.traced_runs):
                seed = args.seed_base + 1000 + i
                result, e2e = run_once(workload, seed, bench["run_seconds"], 1)
                ok &= result["correct"]
                traced.append(e2e)
            print(f"\n{workload}: tracing overhead over {args.traced_runs} "
                  "traced run(s)")
            for name in bounds:
                med = statistics.median(t[name]["value"] for t in traced)
                print(f"{name:18s} untraced {medians[name]:12.6g} traced "
                      f"{med:12.6g} ({(med / medians[name] - 1) * 100:+.1f}%)")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
