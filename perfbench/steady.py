"""Steadiness report for the benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--sets 1]

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` on each
workload once per seed (seeds 1 .. runs), and prints for every end-to-end
metric its median, its quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread: the distance between the quartiles as a share
of the median.  A spread within a third of the metric's bound in
BENCHMARK.json reads "steady", within the bound "ok", beyond it
"UNSTEADY".  With ``--sets 2`` the same seeds run twice, and each later
set's median must not be worse than the first set's by more than the
bound.  It also prints each workload's fail ratio.
Exits 1 if any spread or drift exceeds its bound or any job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    """The result object of one run, or None (reported) if it printed none."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"{workload} seed {seed} exited with code {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark steadiness report.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    workloads = args.workload or names
    seeds = range(1, args.runs + 1)

    # results[set][workload] -> list of result objects, one per seed
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    bad = False
    for per_set in results:
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, benchmark["run_seconds"])
                if result is None:
                    bad = True
                else:
                    per_set[workload].append(result)
                    print(f"ran {workload} seed {seed}", file=sys.stderr)

    for workload in workloads:
        runs = [r for per_set in results for r in per_set[workload]]
        if any(len(per_set[workload]) < 2 for per_set in results):
            print(f"\n{workload}: too few runs gave a result")
            bad = True
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        bad |= failed > 0 or not all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, fail_ratio = {failed / attempted:.6g} "
              f"({failed} of {attempted} jobs)")
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for k, per_set in enumerate(results):
                values = [r["metrics"][name]["value"] for r in per_set[workload]]
                median, q1, q3, share = spread(values)
                if share <= bound / 3:
                    verdict = "steady"
                elif share <= bound:
                    verdict = "ok"
                else:
                    verdict, bad = "UNSTEADY", True
                if first_median is None:
                    first_median = median
                else:
                    drift = worse_by(first_median, median, metric["better"])
                    verdict += f", {drift:+.2%} vs set 1"
                    if drift > bound:
                        verdict, bad = verdict + " DRIFT", True
                print(f"  {name:<12} {k + 1:>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{share:>8.2%} {bound:>6.0%}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
