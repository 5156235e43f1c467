#!/usr/bin/env python3
"""Compare two sets of neurobench runs.

    python3 bench/neurobench/repeat.py SET_A SET_B [--pairs] [--benchmark FILE]

Each set is a directory searched recursively for BENCH_neurobench_*.json
files written by untraced runs (one file per run: give each run its own
--out directory). For every workload it prints each set's median and
quartiles of every end-to-end metric of BENCHMARK.json, and of the
workload's own bounded metrics (WORKLOAD_METRICS below).

Without --pairs the sets are repeats of one build: the exit code is 1 when
any metric's medians differ by more than the metric's bound, either way.

With --pairs, SET_A is the parent and SET_B the change, run as pairs (the
i-th run of each set, in path order, is one pair, its two runs made one
after the other). The difference is then the median over pairs of each
pair's relative difference, so a change of the machine's speed between
pairs cancels out; the exit code is 1 when that difference makes the
change worse than the parent by more than the bound. A gain is claimed
only when the change wins at least nine tenths of the pairs (ties count
for neither) and the medians differ by more than the parent's own spread
(the distance between its quartiles).

Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics of one workload, beside BENCHMARK.json's end-to-end metrics that
# every workload reports: (name, better, bound).
WORKLOAD_METRICS = {
    "serve_column": [("range_sim_us", "lower", 0.05)],
    "explore_scout": [("step_stall_sim_us", "lower", 0.01)],
    "ingest_durable": [("recover_s", "lower", 0.10)],
}


def load_set(root):
    """workload -> list of metric dicts, in path order."""
    runs = {}
    pattern = os.path.join(root, "**", "BENCH_neurobench_*.json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as f:
            run = json.load(f)
        if run.get("trace"):
            continue
        metrics = {k: v["value"] for k, v in run["metrics"].items()}
        runs.setdefault(run["workload"], []).append(metrics)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--pairs", action="store_true",
                        help="SET_A is the parent, SET_B the change")
    parser.add_argument(
        "--benchmark", default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        catalog = [(m["name"], m["better"], m["bound"])
                   for m in json.load(f)["end_to_end"]]
    a_runs, b_runs = load_set(args.set_a), load_set(args.set_b)
    failed = False
    print(f"{'workload':18} {'metric':18} {'A q1/med/q3':>34} "
          f"{'B q1/med/q3':>34} {'diff':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for name, better, bound in catalog + WORKLOAD_METRICS.get(workload, []):
            higher = better == "higher"
            a = [m[name] for m in a_runs[workload] if name in m]
            b = [m[name] for m in b_runs[workload] if name in m]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            if args.pairs:
                pairs = list(zip(a, b))
                diff = statistics.median(y / x - 1 if x else 0.0
                                         for x, y in pairs)
                worse = -diff if higher else diff
                verdict = "regression" if worse > bound else "ok"
                wins = sum((y > x) if higher else (y < x) for x, y in pairs)
                spread = qa[2] - qa[0]
                if (wins >= 0.9 * len(pairs) and
                        abs(qb[1] - qa[1]) > spread and worse < 0):
                    verdict += f", gain ({wins}/{len(pairs)} pairs)"
            else:
                diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                verdict = "differs" if abs(diff) > bound else "ok"
            failed |= verdict.startswith(("regression", "differs"))
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{workload:18} {name:18} {fmt(qa):>34} {fmt(qb):>34} "
                  f"{100 * diff:+7.2f}% {100 * bound:5.1f}%  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
