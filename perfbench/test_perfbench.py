"""Unit tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -t perfbench

They cover the self-time arithmetic of the trace, the wrapping and
restoring of hschain functions, the rescaling of timings to the reference
host speed, the density check catching corrupted artifacts, and the
spacings check catching a changed level count.  hschain is imported from the ``src`` tree next to this
directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
import time
import types
import unittest
from fractions import Fraction
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hschain.cli  # noqa: E402
from hschain.chains import FERRO, ChainSpec  # noqa: E402
from hschain.density import density_dp  # noqa: E402
from hschain.table import DensityTable  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 3.0, 0),
            Span("b", 2.0, 5.0, 0),  # overlaps a: the union 1..5 counts once
            Span("c", 9.0, 12.0, 0),  # runs past the parent: only 9..10 counts
            Span("a.inner", 1.5, 2.5, 1),  # a grandchild does not touch root
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 1.0, 3.0, 3.0, 1.0])

    def test_recorded_spans_nest_and_partition_the_root(self):
        recorder = tracing.Recorder(clock=FakeClock(0.0, 1.0, 2.0, 4.0, 7.0, 8.0))
        root = recorder.open("root")
        child = recorder.open("child")
        grandchild = recorder.open("grandchild")
        recorder.close(grandchild)
        recorder.close(child)
        recorder.close(root)
        self.assertEqual([s.parent for s in recorder.spans], [None, 0, 1])
        own = tracing.self_time_by_name(recorder.spans)
        self.assertEqual(own, {"root": 2.0, "child": 4.0, "grandchild": 2.0})
        self.assertEqual(sum(own.values()), tracing.root_total(recorder.spans))

    def test_closing_out_of_order_raises(self):
        recorder = tracing.Recorder()
        outer = recorder.open("outer")
        recorder.open("inner")
        with self.assertRaises(RuntimeError):
            recorder.close(outer)

    def test_covered_length_of_disjoint_and_nested_intervals(self):
        self.assertEqual(tracing.covered_length([(5.0, 6.0), (0.0, 2.0), (1.0, 1.5)]), 3.0)
        self.assertEqual(tracing.covered_length([]), 0.0)


class HostSpeedTest(unittest.TestCase):
    def test_rescale_drops_the_loops_time_and_weights_by_speed(self):
        ref = hostspeed.REFERENCE_LOOP_S
        sampler = hostspeed.Sampler()
        # half the samples at reference speed, half at half speed: the
        # region ran at 3/4 of the reference speed on average
        sampler.samples = [ref, 2 * ref, ref, 2 * ref]
        spent = 6 * ref
        self.assertAlmostEqual(sampler.rescale(1.0 + spent), 0.75)

    def test_no_sample_is_an_error(self):
        with self.assertRaises(RuntimeError):
            hostspeed.Sampler().rescale(1.0)

    def test_samples_are_taken_during_the_region_only(self):
        with hostspeed.Sampler() as sampler:
            deadline = time.perf_counter() + 10 * hostspeed.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        taken = len(sampler.samples)
        self.assertGreaterEqual(taken, 3)
        time.sleep(3 * hostspeed.INTERVAL_S)
        self.assertEqual(len(sampler.samples), taken)
        self.assertGreater(sampler.rescale(10 * hostspeed.INTERVAL_S), 0.0)


class WrapTest(unittest.TestCase):
    def test_wrap_records_nested_spans_observes_and_restores(self):
        namespace = types.SimpleNamespace()
        namespace.inner = lambda x, scale=2: x * scale
        namespace.outer = lambda x: namespace.inner(x) + 1
        original_inner = namespace.inner
        seen = []
        recorder = tracing.Recorder()
        recorder.wrap(namespace, "inner", "layer.inner", lambda args, result: seen.append((dict(args), result)))
        recorder.wrap(namespace, "outer", "layer.outer")
        self.assertEqual(namespace.outer(3), 7)
        self.assertEqual([(s.name, s.parent) for s in recorder.spans],
                         [("layer.outer", None), ("layer.inner", 0)])
        self.assertEqual(seen, [({"x": 3}, 6)])
        recorder.restore()
        self.assertIs(namespace.inner, original_inner)

    def test_traced_cli_job_partitions_its_time_and_restores_hschain(self):
        original = hschain.cli.density_dp
        recorder, counts = tracing.Recorder(), layers.Counts()
        out = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, out)
        layers.install(recorder, counts)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = recorder.call(layers.JOB_SPAN, hschain.cli.main,
                                     ["spacings", "--family", "hs", "--N", "16", "--m", "2",
                                      "--out", out])
        finally:
            recorder.restore()
        self.assertEqual(code, 0)
        self.assertIs(hschain.cli.density_dp, original)
        metrics = layers.metrics(recorder.spans, counts)
        layer_times = [v for k, v in metrics.items() if k.endswith("_s") and k != "trace.total_s"]
        self.assertAlmostEqual(sum(layer_times), metrics["trace.total_s"], places=9)
        self.assertEqual(metrics["density.dp_calls"], 1)
        self.assertEqual(metrics["density.grid_cells"], sum(i * (16 - i) for i in range(1, 16)) + 1)
        self.assertGreater(metrics["levelstats.unfold_s"], 0.0)


class DensityCheckTest(unittest.TestCase):
    SPEC = ChainSpec("FI", 7, 3, -1, Fraction(3, 2))

    def setUp(self):
        self.out = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.out)
        with contextlib.redirect_stdout(io.StringIO()):
            hschain.cli.main(["density", "--family", "fi", "--alpha", "3/2", "--N", "7",
                              "--m", "3", "--antiferro", "--format", "csv,json",
                              "--out", self.out])
        self.csv = os.path.join(self.out, "density.csv")
        self.digests = {name: checks.sha256_of(os.path.join(self.out, name))
                        for name in ("density.csv", "density.json")}

    def problems(self):
        return checks.density(self.SPEC, self.digests, self.out, "")

    def rewrite_rows(self, edit):
        with open(self.csv, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        first = lines.index("energy,degeneracy") + 1
        lines[first:] = edit(lines[first:])
        with open(self.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def test_untouched_artifacts_pass(self):
        self.assertEqual(self.problems(), [])

    def test_moved_degeneracy_fails_even_with_the_digest_updated(self):
        def move_one_state(rows):
            low, high = rows[1].split(","), rows[-2].split(",")
            rows[1] = f"{low[0]},{int(low[1]) - 1}"
            rows[-2] = f"{high[0]},{int(high[1]) + 1}"
            return rows

        self.rewrite_rows(move_one_state)
        self.digests["density.csv"] = checks.sha256_of(self.csv)
        problems = self.problems()
        self.assertIn("density.csv moments differ from the closed form", problems)
        self.assertIn("density.json and density.csv list different levels", problems)

    def test_lost_state_fails_the_mass_check(self):
        def drop_last_row(rows):
            return rows[:-1]

        self.rewrite_rows(drop_last_row)
        problems = self.problems()
        self.assertIn("density.csv differs from its recorded sha256", problems)
        self.assertIn("density.csv degeneracies do not sum to m**N", problems)

    def test_reformatted_bytes_fail_the_digest_only(self):
        with open(self.csv, "rb") as handle:
            data = handle.read()
        with open(self.csv, "wb") as handle:
            handle.write(data.replace(b"\n", b"\r\n"))
        self.assertEqual(self.problems(), ["density.csv differs from its recorded sha256"])


class SpacingsCheckTest(unittest.TestCase):
    SPEC = ChainSpec("HS", 16, 2, FERRO)

    def run_job(self):
        out = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, out)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = hschain.cli.main(["spacings", "--family", "hs", "--N", "16", "--m", "2",
                                     "--format", "csv,svg", "--out", out])
        self.assertEqual(code, 0)
        return out, printed.getvalue()

    def test_untouched_job_passes(self):
        count = len(density_dp(self.SPEC)) - 1
        self.assertEqual(checks.spacings(count, *self.run_job()), [])

    def test_merged_levels_fail_the_count_only(self):
        count = len(density_dp(self.SPEC)) - 1

        def merge_lowest_two(spec):
            entries = dict(density_dp(spec).entries)
            low, next_low = sorted(entries)[:2]
            entries[next_low] += entries.pop(low)
            return DensityTable(entries=entries, total=spec.n_states)

        with mock.patch.object(hschain.cli, "density_dp", merge_lowest_two):
            problems = checks.spacings(count, *self.run_job())
        self.assertEqual(problems, [f"{count - 1} spacings, expected {count}"])


if __name__ == "__main__":
    unittest.main()
