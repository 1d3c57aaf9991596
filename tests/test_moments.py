"""Closed-form spectral moments against density-derived ones."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from hschain import (
    ChainSpec,
    ValidationError,
    closed_form_moments,
    dispersion,
    empirical_moments,
)
from hschain.density import density_dp
from hschain.moments import _bond_sums
from diagnostics import variance_identity_residual
from small_tables import table_of

FAMILY_GRID = [
    ("HS", None),
    ("PF", None),
    ("FI", Fraction(1)),
    ("FI", Fraction(3, 2)),
    ("FI", Fraction(2)),
]


def test_closed_form_spot_values():
    stats = closed_form_moments(ChainSpec("PF", 3, 2))
    assert (stats.mu, stats.sigma2) == (Fraction(3, 4), Fraction(11, 16))
    assert stats.sigma == pytest.approx(math.sqrt(11) / 4, rel=1e-15)

    stats = closed_form_moments(ChainSpec("HS", 4, 2))
    assert (stats.mu, stats.sigma2) == (Fraction(5, 2), Fraction(27, 8))

    stats = closed_form_moments(ChainSpec("PF", 3, 2, epsilon=-1))
    assert (stats.mu, stats.sigma2) == (Fraction(9, 4), Fraction(11, 16))


def test_empirical_spot_values():
    table = table_of({0: 4, 1: 2, 2: 2})
    stats = empirical_moments(table)
    assert (stats.mu, stats.sigma2) == (Fraction(3, 4), Fraction(11, 16))

    table = table_of({0: 5, 3: 6, 4: 4, 6: 1})
    stats = empirical_moments(table)
    assert (stats.mu, stats.sigma2) == (Fraction(5, 2), Fraction(27, 8))


def test_empirical_moments_respect_the_energy_scale():
    # same physical density on two grids
    coarse = table_of({0: 1, 1: 2, 2: 1})
    fine = table_of({0: 1, 2: 2, 4: 1}, energy_scale=2)
    assert empirical_moments(coarse).mu == empirical_moments(fine).mu
    assert empirical_moments(coarse).sigma2 == empirical_moments(fine).sigma2


def test_single_atom_has_zero_width():
    stats = empirical_moments(table_of({0: 1}))
    assert (stats.mu, stats.sigma2, stats.sigma) == (0, 0, 0.0)


def test_closed_form_equals_empirical_exactly():
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3), range(2, 9), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        stats = closed_form_moments(spec)
        observed = empirical_moments(density_dp(spec))
        assert stats.mu == observed.mu, spec
        assert stats.sigma2 == observed.sigma2, spec


def test_width_ignores_the_sign():
    for family, alpha in FAMILY_GRID:
        spec = ChainSpec(family, 7, 3, alpha=alpha)
        assert closed_form_moments(spec).sigma2 == closed_form_moments(
            replace(spec, epsilon=-1)
        ).sigma2


def test_means_of_both_signs_add_to_the_total_weight():
    for family, alpha in FAMILY_GRID:
        spec = ChainSpec(family, 8, 4, alpha=alpha)
        total = dispersion(spec).total
        assert (
            closed_form_moments(spec).mu + closed_form_moments(replace(spec, epsilon=-1)).mu
            == total
        )


def test_width_growth_rates():
    # sigma grows like N**2.5 for the polynomial dispersions of degree 2
    # and like N**1.5 for the linear one; the scaled series must flatten.
    def scaled(family, alpha, power):
        out = []
        for n in (8, 16, 32, 64):
            spec = ChainSpec(family, n, 2, 1, alpha)
            out.append(closed_form_moments(spec).sigma / n ** power)
        return out

    for family, alpha, power in (
        ("HS", None, 2.5),
        ("FI", Fraction(3, 2), 2.5),
        ("PF", None, 1.5),
    ):
        series = scaled(family, alpha, power)
        assert max(series) / min(series) < 2.0, (family, series)


def test_weight_square_sum_residual():
    # the exact value here is 6/11; only the final conversion is floating
    value = variance_identity_residual(ChainSpec("PF", 3, 2))
    assert value == pytest.approx(6 / 11, rel=1e-15)
    assert variance_identity_residual(ChainSpec("HS", 16, 3)) >= 0


def _weights(spec):
    """The bond weights F(i) as exact Fractions."""
    disp = dispersion(spec)
    return [Fraction(s, disp.energy_scale) for s in disp.scaled]


def test_weight_square_sum_residual_equals_the_rational_weight_sum():
    # reference: (1/12) (m**2 - 1) sum F**2 / (m**2 sigma2) over the Fraction
    # weights, minus 1, converted to float once
    for (family, alpha), m, eps, n in itertools.product(
        FAMILY_GRID + [("FI", Fraction(5, 3)), ("FI", Fraction(1, 7))],
        (2, 3, 5), (1, -1), (2, 3, 10, 57, 128),
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        sigma2 = closed_form_moments(spec).sigma2
        total = sum((v * v / (m * m * sigma2) for v in _weights(spec)), Fraction(0))
        expected = abs(float(Fraction(m * m - 1, 12) * total - 1))
        assert variance_identity_residual(spec) == expected, spec


def test_weight_square_sum_residual_needs_a_width():
    with pytest.raises(ValidationError):
        variance_identity_residual(ChainSpec("HS", 6, 1))


def test_weight_square_sum_residual_decays_at_least_like_one_over_n():
    # the scaled series must not grow; for the palindromic dispersion it
    # even keeps falling, which is fine for the bound
    series = [
        variance_identity_residual(ChainSpec("HS", n, 2)) * n for n in (8, 16, 32, 64, 128)
    ]
    assert all(value <= 2.0 * series[0] for value in series)
    assert series[-1] <= series[0]


def _fraction_moments(spec):
    """The closed forms summed term by term over the Fraction bond weights."""
    values = _weights(spec)
    m = spec.m
    total = sum(values, Fraction(0))
    mu = Fraction(1, 2) * (1 - Fraction(spec.epsilon, m)) * total
    sq = sum((v * v for v in values), Fraction(0))
    cross = sum((values[i - 1] * values[i] for i in range(1, len(values))), Fraction(0))
    sigma2 = (1 - Fraction(1, m * m)) * (Fraction(sq, 4) - Fraction(cross, 6))
    return mu, sigma2


def test_closed_form_equals_the_fraction_sums():
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID + [("FI", Fraction(5, 3)), ("FI", Fraction(1, 2))],
        (1, 2, 3, 5), (2, 3, 8, 61, 300), (1, -1),
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        stats = closed_form_moments(spec)
        mu, sigma2 = _fraction_moments(spec)
        assert (stats.mu, stats.sigma2) == (mu, sigma2), spec
        assert stats.sigma == math.sqrt(sigma2), spec


def _tuple_bond_sums(spec):
    """S1, S2 and C summed over the tuple of scaled weights, and the scale."""
    disp = dispersion(spec)
    s = disp.scaled
    return (sum(s), sum(v * v for v in s), sum(a * b for a, b in zip(s, s[1:])),
            disp.energy_scale)


@pytest.mark.parametrize("family, alpha", [
    ("HS", None), ("PF", None), ("FI", Fraction(3, 2)), ("FI", Fraction(5, 2)),
    ("FI", Fraction(1, 7)), ("FI", Fraction(1, 10 ** 15 + 37)),
])
def test_closed_form_bond_sums_equal_the_tuple_sums(family, alpha):
    for n in [*range(2, 201), 10 ** 5]:
        spec = ChainSpec(family, n, 2, alpha=alpha)
        assert _bond_sums(spec) == _tuple_bond_sums(spec), spec
