"""End-to-end consistency suite across the independent computation routes.

Every quantity in this package is computable at least two ways: level
densities by digit-string enumeration, by the bond dynamic program, and by
the composition sum; the set of levels also by the one-bit run of the
bond recursion; moments in closed form and from the density;
the characteristic function by transfer-matrix products and by direct
phase sums over the density.  Running all pairings over a grid of small
chains is the package's self-test, wired to the `crosscheck` subcommand.

Exact routes must agree exactly; the only tolerance here is the float
comparison between the two characteristic-function routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chains import ANTIFERRO, FAMILIES, FERRO, ChainSpec
from .density import composition_density, density_dp, level_support
from .moments import closed_form_moments, empirical_moments
from .motifs import brute_force_density
from .transfer import charfn_exact, charfn_from_density, default_t_grid

CHARFN_TOL = 1e-10
DEFAULT_BRUTE_CAP = 300_000


@dataclass(frozen=True)
class CheckResult:
    """One pairwise comparison; deviation is 0.0 for exact matches, 1.0
    for exact mismatches, and the max absolute error for float checks."""

    name: str
    spec: ChainSpec
    deviation: float
    passed: bool


@dataclass(frozen=True)
class CrosscheckReport:
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.results if not r.passed)


def _grid(max_n: int, m_values, alphas):
    for family in FAMILIES:
        family_alphas = alphas if family == "FI" else (None,)
        for alpha in family_alphas:
            for m in m_values:
                for epsilon in (FERRO, ANTIFERRO):
                    for n in range(2, max_n + 1):
                        yield ChainSpec(family, n, m, epsilon, alpha)


def run_crosscheck(
    max_n: int = 12,
    m_values=(2, 3),
    alphas=(1, Fraction(3, 2)),
    brute_cap: int = DEFAULT_BRUTE_CAP,
    t_grid=None,
) -> CrosscheckReport:
    """Compare all redundant routes over a grid of chains.

    The brute-force route joins in only while m**N stays below `brute_cap`;
    the other comparisons run on the full grid.
    """
    t = np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)
    results = []
    for spec in _grid(max_n, m_values, alphas):
        dense = density_dp(spec)
        composed = composition_density(spec)
        results.append(CheckResult(
            name="density_dp_vs_composition",
            spec=spec,
            deviation=0.0 if dense == composed else 1.0,
            passed=dense == composed,
        ))
        support = level_support(spec)
        support_ok = (support.energy_scale == dense.energy_scale
                      and np.array_equal(support.levels(), dense.levels()))
        results.append(CheckResult(
            name="level_support_vs_density_dp",
            spec=spec,
            deviation=0.0 if support_ok else 1.0,
            passed=support_ok,
        ))
        if spec.n_states <= brute_cap:
            brute = brute_force_density(spec)
            results.append(CheckResult(
                name="density_dp_vs_brute_force",
                spec=spec,
                deviation=0.0 if dense == brute else 1.0,
                passed=dense == brute,
            ))
        stats = closed_form_moments(spec)
        sampled = empirical_moments(dense)
        moments_ok = stats.mu == sampled.mu and stats.sigma2 == sampled.sigma2
        results.append(CheckResult(
            name="moments_closed_form_vs_density",
            spec=spec,
            deviation=0.0 if moments_ok else 1.0,
            passed=moments_ok,
        ))
        if stats.sigma > 0:
            gap = np.abs(charfn_exact(spec, stats, t) - charfn_from_density(dense, stats, t))
            deviation = float(gap.max())
            results.append(CheckResult(
                name="charfn_transfer_vs_density",
                spec=spec,
                deviation=deviation,
                passed=deviation < CHARFN_TOL,
            ))
    return CrosscheckReport(results=tuple(results))
