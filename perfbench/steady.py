#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload repeatedly, one seed per run, and prints every
end-to-end metric's median, quartiles and spread (interquartile range over
the median, as statistics.quantiles(values, n=4) gives the quartiles)
against the bound BENCHMARK.json fixes for it. With --sets 2 it repeats the
whole set and checks that each later set's medians are within each bound of
the first's, in either direction, and prints the largest change each way.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads fleet_unique --runs 5 --sets 2

Exits 1 when any spread exceeds its bound, when two sets disagree by more
than a bound, or when any run fails or prints no result.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    ok = True
    changes = []
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.seed_base + s * args.runs + r
                try:
                    runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
                    print(f"  run seed {seed}: " + " ".join(
                        f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
                except RuntimeError as e:
                    print(f"FAIL {e}")
                    ok = False
            if len(runs) < 2:
                ok = False
                continue
            print(f"{workload} set {s + 1}: {len(runs)} runs")
            set_medians = {}
            for m in metrics:
                values = [run[m["name"]] for run in runs]
                q1, med, q3, spread = summarize(values)
                set_medians[m["name"]] = med
                verdict = "ok"
                if spread > m["bound"]:
                    verdict, ok = "OVER BOUND", False
                elif spread > m["bound"] / 3:
                    verdict = "over a third of bound"
                print(
                    f"  {m['name']:<12} median {med:12.6g} {m['unit']:<4} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                    f"bound {m['bound']:.2f}  {verdict}"
                )
            medians.append(set_medians)
        for later in medians[1:]:
            for m in metrics:
                first, second = medians[0][m["name"]], later[m["name"]]
                change = (second - first) / first
                changes.append((change, workload, m["name"]))
                flag = "ok" if abs(change) <= m["bound"] else "DISAGREE"
                if flag != "ok":
                    ok = False
                print(f"  {workload} {m['name']}: set medians {first:.6g} -> {second:.6g} "
                      f"({change:+.2%}, bound {m['bound']:.2f}) {flag}")
    if changes:
        up, down = max(changes), min(changes)
        print(f"largest rise between sets {up[0]:+.2%} ({up[1]} {up[2]}), "
              f"largest fall {down[0]:+.2%} ({down[1]} {down[2]})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
