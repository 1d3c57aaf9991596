"""Mean and variance of the spectrum, closed form and empirical.

The closed forms hold for all three chain families in terms of the
dispersion F alone:

    mean      (1/2) (1 - eps/m) * sum_i F(i)
    variance  (1 - 1/m**2) * [ (1/4) sum_i F(i)**2
                               - (1/6) sum_{i>=2} F(i-1) F(i) ]

with the variance independent of the sign eps.  Everything is evaluated in
exact rational arithmetic; the floating standard deviation is derived last.
The empirical counterparts recompute the same quantities from an exact
density table, and the two must agree as rationals, not approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chains import ChainSpec, dispersion, exact_normalized_dispersion
from .errors import ValidationError
from .table import DensityTable


@dataclass(frozen=True)
class SpectrumStats:
    """Exact mean and variance of a spectrum, plus the float width."""

    mu: Fraction
    sigma2: Fraction
    sigma: float

    @classmethod
    def from_exact(cls, mu: Fraction, sigma2: Fraction) -> "SpectrumStats":
        return cls(mu=mu, sigma2=sigma2, sigma=math.sqrt(sigma2))


def closed_form_moments(spec: ChainSpec) -> SpectrumStats:
    """Mean and variance of the chain spectrum from the dispersion alone."""
    disp = dispersion(spec)
    values = disp.values
    m = spec.m
    total = sum(values, Fraction(0))
    mu = Fraction(1, 2) * (1 - Fraction(spec.epsilon, m)) * total
    sq = sum((v * v for v in values), Fraction(0))
    cross = sum((values[i - 1] * values[i] for i in range(1, len(values))), Fraction(0))
    sigma2 = (1 - Fraction(1, m * m)) * (Fraction(sq, 4) - Fraction(cross, 6))
    return SpectrumStats.from_exact(mu, sigma2)


def empirical_moments(density: DensityTable) -> SpectrumStats:
    """Mean and variance read off an exact density table.

    All sums run over exact integers on the scaled energy grid; the division
    by the grid scale and the state count happens once, at the end.
    """
    if not len(density):
        raise ValidationError("empty density table")
    scale, total = density.energy_scale, density.total
    pairs = density.items()
    first = sum(e * d for e, d in pairs)
    second = sum(e * e * d for e, d in pairs)
    mu = Fraction(first, scale * total)
    sigma2 = Fraction(second, scale * scale * total) - mu * mu
    return SpectrumStats.from_exact(mu, sigma2)


def variance_identity_residual(spec: ChainSpec) -> float:
    """Deviation of the normalized squared bond weights from their limit.

    The quantity (1/12) (m**2 - 1) * sum_j gamma_j**2 equals 1 up to a
    correction that decays like 1/N; the absolute deviation from 1 is
    returned, computed in exact rational arithmetic before the final float
    conversion.
    """
    stats = closed_form_moments(spec)
    gammasq = exact_normalized_dispersion(spec, stats.sigma2)
    m = spec.m
    value = Fraction(m * m - 1, 12) * sum(gammasq, Fraction(0))
    return abs(float(value - 1))
