"""One pass over one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 --out DIR --src SRC

Imports ``hschain.cli`` and calls ``main(argv)`` in-process for every job
of the workload, one after another, as a user's CLI calls would run them.
The pass starts from an empty artifact directory; after it, outside the
timed region, every job's artifacts are checked.  An untraced pass samples
the host's speed while it runs and reports its wall time rescaled to the
reference speed (``hostspeed.py``) as well as raw.  The last line of
standard output is one JSON object with the pass's figures; ``run.py``
repeats passes and aggregates them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import hschain
import hschain.cli

import hostspeed
import layers
import tracing
import workloads


def run_jobs(jobs, out_root: str, recorder=None, sampler=None) -> tuple[float, list]:
    """Run every job once; return the wall time from the first main() call
    to the last return, and (job, outdir, printed text, error) per job.
    `sampler`, if given, samples the host's speed over exactly that time."""
    shutil.rmtree(out_root, ignore_errors=True)
    outputs = []
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        for k, job in enumerate(jobs):
            outdir = os.path.join(out_root, f"job{k}")
            argv = list(job.argv) + ["--out", outdir]
            printed = io.StringIO()
            try:
                with contextlib.redirect_stdout(printed):
                    if recorder is None:
                        code = hschain.cli.main(argv)
                    else:
                        code = recorder.call(layers.JOB_SPAN, hschain.cli.main, argv)
                error = None if code == 0 else f"exit code {code}"
            except Exception:  # a job that raises is a failed job; the run goes on
                error = traceback.format_exc()
            outputs.append((job, outdir, printed.getvalue(), error))
        wall = time.perf_counter() - start
    return wall, outputs


def check_jobs(outputs) -> list:
    """One problem string per job whose run or artifacts failed."""
    failures = []
    for job, outdir, printed, error in outputs:
        if error is not None:
            problems = [error]
        else:
            try:
                problems = job.check(outdir, printed)
            except Exception:  # an artifact the check cannot parse is a failure
                problems = [traceback.format_exc()]
        if problems:
            failures.append(f"{' '.join(job.argv)}: {'; '.join(problems)}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="artifact directory, emptied first")
    parser.add_argument("--spans", help="file the traced pass writes its spans to")
    parser.add_argument("--src", required=True, help="source tree hschain must be imported from")
    args = parser.parse_args(argv)
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")

    src = os.path.realpath(args.src)
    if not os.path.realpath(hschain.__file__).startswith(src + os.sep):
        print(f"hschain was imported from {hschain.__file__}, not from {src}", file=sys.stderr)
        return 2

    jobs = workloads.jobs(args.workload, args.seed)
    result = {"attempted": len(jobs)}
    if args.trace:
        recorder, counts = tracing.Recorder(), layers.Counts()
        layers.install(recorder, counts)
        try:
            result["wall_s"], outputs = run_jobs(jobs, args.out, recorder)
        finally:
            recorder.restore()
        result["layers"] = layers.metrics(recorder.spans, counts)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)
    else:
        sampler = hostspeed.Sampler()
        wall, outputs = run_jobs(jobs, args.out, sampler=sampler)
        result["wall_s"] = sampler.rescale(wall)
        result["raw_wall_s"] = wall - sum(sampler.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_jobs(outputs)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result["failed"] = len(failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
