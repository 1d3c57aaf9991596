"""Which hschain functions a traced run wraps, and the per-layer metrics
derived from the spans and counts.

Functions are wrapped where their callers look them up: the CLI calls
``density_dp`` through ``hschain.cli`` but the oracle calls it through
``hschain.hamiltonian``, so both names are wrapped under one span name.
Span names are module names, so per-layer metrics read ``<module>.<what>``.

Counts marked *computed* below come from spec arithmetic and the sizes of
returned objects, never from counters inside the program, so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import numpy as np

import hschain.cli
import hschain.hamiltonian
import hschain.table
import hschain.transfer
from hschain.chains import dispersion
from hschain.density import DEFAULT_MEMORY_BUDGET

import tracing

# (namespace, attribute, span name); the metric is "<span name>_s".
SPANS = (
    (hschain.cli, "density_dp", "density.dp"),
    (hschain.hamiltonian, "density_dp", "density.dp"),
    (hschain.table.DensityTable, "levels", "table.levels"),
    (hschain.table.DensityTable, "to_csv", "table.to_csv"),
    (hschain.table.DensityTable, "to_json_dict", "table.to_json"),
    (hschain.cli, "unfold", "levelstats.unfold"),
    (hschain.cli, "spacing_distribution", "levelstats.spacing"),
    (hschain.cli, "ks_distance", "levelstats.ks"),
    (hschain.cli, "closed_form_moments", "moments.closed_form"),
    (hschain.transfer, "closed_form_moments", "moments.closed_form"),
    (hschain.transfer, "charfn_exact", "transfer.exact"),
    (hschain.transfer, "charfn_asymptotic", "transfer.asym"),
    (hschain.cli, "convergence_report", "transfer.convergence"),
    (hschain.hamiltonian, "build_hamiltonian", "hamiltonian.build"),
    (hschain.hamiltonian, "jacobi_eigenvalues", "hamiltonian.jacobi"),
    (hschain.cli, "histogram_plot", "svgplot.render"),
    (hschain.cli, "line_plot", "svgplot.render"),
)
JOB_SPAN = "cli.main"


def dp_slot_bytes(spec) -> int:
    """Bytes per energy cell of the DP's packed integers (computed)."""
    return max(8, (spec.n_states.bit_length() + 7) // 8 + 1)


class Counts:
    """Computed counts and measured outcomes observed at the wrapped calls."""

    def __init__(self):
        self.largest_dp = (0, 0, 0)  # (grid bytes, grid cells, levels) of the largest DP call
        self.csv_bytes = 0
        self.spacings = 0
        self.zero_spacings = 0
        self.products = 0
        self.dim = 0
        self.affine_dev = 0.0

    def density_dp(self, args, table) -> None:
        spec = args["spec"]
        cells = dispersion(spec).scaled_total + 1
        grid_bytes = cells * dp_slot_bytes(spec) * spec.m
        self.largest_dp = max(self.largest_dp, (grid_bytes, cells, len(table)))

    def to_csv(self, args, text) -> None:
        self.csv_bytes += len(text)

    def spacing_distribution(self, args, histogram) -> None:
        self.spacings += histogram.spacings.size
        self.zero_spacings += int(np.count_nonzero(histogram.spacings == 0.0))

    def charfn_exact(self, args, values) -> None:
        spec = args["spec"]
        points = np.asarray(values).size
        self.products += (spec.n_spins - 1) * points * spec.m ** 2

    def build_hamiltonian(self, args, operator) -> None:
        self.dim += operator.dimension

    def oracle_compare(self, args, report) -> None:
        self.affine_dev = max(self.affine_dev, report.affine_deviation)


def install(recorder: tracing.Recorder, counts: Counts) -> None:
    observers = {
        "density_dp": counts.density_dp,
        "to_csv": counts.to_csv,
        "spacing_distribution": counts.spacing_distribution,
        "charfn_exact": counts.charfn_exact,
        "build_hamiltonian": counts.build_hamiltonian,
    }
    for owner, attr, name in SPANS:
        recorder.wrap(owner, attr, name, observers.get(attr))
    recorder.wrap(hschain.cli, "oracle_compare", None, counts.oracle_compare)


def metrics(spans, counts: Counts) -> dict:
    """Per-layer metrics of one traced repetition (everything except the
    overhead, which needs the untraced repetitions too)."""
    own = tracing.self_time_by_name(spans)
    calls = tracing.count_by_name(spans)
    out = {f"{name}_s": own.get(name, 0.0) for _, _, name in SPANS}
    out["cli.self_s"] = own.get(JOB_SPAN, 0.0)
    grid_bytes, cells, levels = counts.largest_dp
    out.update({
        "density.dp_calls": calls.get("density.dp", 0),
        "density.levels": levels,
        "density.grid_cells": cells,
        "density.grid_bytes": grid_bytes,
        "density.budget_frac": grid_bytes / DEFAULT_MEMORY_BUDGET,
        "table.levels_calls": calls.get("table.levels", 0),
        "table.csv_bytes": counts.csv_bytes,
        "levelstats.saturated_ratio": (
            counts.zero_spacings / counts.spacings if counts.spacings else 0.0
        ),
        "transfer.products": counts.products,
        "hamiltonian.dim": counts.dim,
        "hamiltonian.affine_dev": counts.affine_dev,
        "trace.total_s": tracing.root_total(spans),
    })
    return out
