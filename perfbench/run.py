"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it uses the
``src/hschain`` next to this directory and writes only under
``.perfbench-out/`` at the checkout root.

Each pass runs the workload's CLI jobs once in a fresh single-threaded
worker process; passes repeat until --seconds is spent in them (set-up
probes come on top).  With ``--trace 0`` it reports the end-to-end metrics
named in BENCHMARK.json:

- ``wall_s``: the median over passes of the pass's wall time, rescaled to
  a reference speed of the host.  Other tenants of a shared host slow a
  pass down by up to 1.5x, in spells that come and go within a second, so
  each pass samples the host's speed while it runs (``hostspeed.py``,
  README.md);
- ``peak_rss_mb``: the median over passes of the worker's maximum resident set;
- ``setup_s``: the median of sixteen fresh interpreters' times to
  ``import hschain.cli``, taken between passes and spread over the run,
  each rescaled in the same way.

With ``--trace 1`` untraced and traced passes alternate, and it reports the
per-layer metrics of the fastest traced pass instead (raw times, not
rescaled).  Every job's
artifacts are checked; ``failed / attempted`` is the fail ratio.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_IMPORTS = 16  # timed fresh imports per run, after one untimed warm-up
RUN_TIMEOUT_S = 170.0
IMPORT_PROBE = f"""
import sys, time
sys.path.append({BENCH!r})
import hostspeed
sampler = hostspeed.Sampler()
with sampler:
    start = time.perf_counter()
    import hschain.cli
    wall = time.perf_counter() - start
print(sampler.rescale(wall))
"""


def child_env() -> dict:
    """Environment of every child: hschain from this checkout, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(env: dict, deadline: float) -> float:
    """Time a fresh interpreter takes to import hschain.cli, rescaled."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return float(probe.stdout)


def run_pass(args, env: dict, deadline: float, traced: bool, index: int) -> dict:
    """One pass over the workload in a fresh worker process."""
    out = os.path.join(OUT, args.workload)
    command = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
        "--out", os.path.join(out, "artifacts"), "--spans", os.path.join(out, f"spans-{index}.json"),
        "--src", SRC,
    ]
    with subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def run_passes(args, env: dict, deadline: float, between) -> tuple[list, list]:
    """Untraced passes (and, with --trace 1, traced ones alternating with
    them), at least one of each, and no further cycle once the slowest
    cycle so far would take the time spent in passes past --seconds.
    After each cycle, `between` is called with that time as a share of
    --seconds; its own time is not counted."""
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)
    os.makedirs(os.path.join(OUT, args.workload))
    plain, traced = [], []
    spent = slowest = 0.0
    while True:
        cycle_start = time.monotonic()
        plain.append(run_pass(args, env, deadline, False, len(plain) + len(traced)))
        if args.trace:
            traced.append(run_pass(args, env, deadline, True, len(plain) + len(traced)))
        cycle = time.monotonic() - cycle_start
        spent += cycle
        slowest = max(slowest, cycle)
        between(spent / args.seconds)
        if spent + slowest > args.seconds:
            return plain, traced


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one hschain benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hschain", "cli.py")):
        print(f"error: no hschain sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env()
    setup_times = []

    def probe_setup(share):
        # Keep pace with the passes: once a share f of --seconds is spent
        # in them, f of the probes are done, so they sample the whole run.
        while len(setup_times) < SETUP_IMPORTS * min(1.0, share):
            setup_times.append(import_seconds(env, deadline))

    try:
        if args.trace:
            plain, traced = run_passes(args, env, deadline, lambda share: None)
        else:
            import_seconds(env, deadline)  # untimed: may compile bytecode into a fresh checkout
            plain, traced = run_passes(args, env, deadline, probe_setup)
            while len(setup_times) < SETUP_IMPORTS:
                setup_times.append(import_seconds(env, deadline))
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        specs = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        # one pass, so that its layer self times still add up to its total
        values = dict(min(traced, key=lambda p: p["wall_s"])["layers"])
        fastest_plain = min(p["raw_wall_s"] for p in plain)
        values["trace.overhead_frac"] = values["trace.total_s"] / fastest_plain - 1.0
    else:
        specs = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    if set(values) != set(specs):
        print(f"error: measured metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(specs)}", file=sys.stderr)
        return 4

    for name in specs:
        print(f"{name} = {values[name]:.6g} {specs[name]}")
    raw = sorted(p["raw_wall_s"] for p in plain)
    print(f"raw pass wall times = {', '.join(f'{t:.4g}' for t in raw)} s")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs), "
          f"passes = {len(plain)} untraced + {len(traced)} traced")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": specs[name]} for name in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
