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

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .chains import ANTIFERRO, FAMILIES, FERRO, ChainSpec
from .density import composition_density, density_dp, level_support
from .errors import ValidationError
from .moments import closed_form_moments, empirical_moments
from .motifs import brute_force_density
from .transfer import charfn_exact, charfn_from_density, default_t_grid

CHARFN_TOL = 1e-10
_BRUTE_STATES = 300_000
_M_VALUES = (2, 3)
_ALPHAS = (1, Fraction(3, 2))


class CheckResult(NamedTuple):
    """One pairwise comparison; deviation is 0.0 for exact matches, 1.0
    for exact mismatches, and the max absolute error for float checks."""

    name: str
    spec: ChainSpec
    deviation: float
    passed: bool


class CrosscheckReport(NamedTuple):
    results: tuple

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.results if not r.passed)


def _grid(max_n: int):
    for family in FAMILIES:
        for alpha in _ALPHAS if family == "FI" else (None,):
            for m in _M_VALUES:
                for epsilon in (FERRO, ANTIFERRO):
                    for n in range(2, max_n + 1):
                        yield ChainSpec(family, n, m, epsilon, alpha)


def _exact(name: str, spec: ChainSpec, agree: bool) -> CheckResult:
    return CheckResult(name=name, spec=spec, deviation=0.0 if agree else 1.0, passed=agree)


def run_crosscheck(max_n: int = 12) -> CrosscheckReport:
    """Compare all redundant routes over a grid of chains, N = 2..`max_n`,
    m = 2 and 3, and for FI alpha = 1 and 3/2.

    The brute-force route joins in only while m**N stays within 300,000;
    the other comparisons run on the full grid.  The characteristic
    functions are compared on :func:`~hschain.transfer.default_t_grid`.
    """
    if max_n < 2:
        raise ValidationError(f"max_n must be at least 2, got {max_n}")
    t = default_t_grid()
    results = []
    for spec in _grid(max_n):
        dense = density_dp(spec)
        results.append(_exact("density_dp_vs_composition", spec,
                              dense == composition_density(spec)))
        support = level_support(spec)
        results.append(_exact("level_support_vs_density_dp", spec,
                              support.energy_scale == dense.energy_scale
                              and np.array_equal(support.levels(), dense.levels())))
        if spec.n_states <= _BRUTE_STATES:
            results.append(_exact("density_dp_vs_brute_force", spec,
                                  dense == brute_force_density(spec)))
        stats = closed_form_moments(spec)
        sampled = empirical_moments(dense)
        results.append(_exact("moments_closed_form_vs_density", spec,
                              stats.mu == sampled.mu and stats.sigma2 == sampled.sigma2))
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
