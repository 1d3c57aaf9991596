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
import operator
from dataclasses import dataclass
from fractions import Fraction

from .chains import ChainSpec, dispersion
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
        try:
            sigma = math.sqrt(sigma2)
        except OverflowError:
            raise ValidationError("the variance sigma2 is past the float range") from None
        return cls(mu=mu, sigma2=sigma2, sigma=sigma)


def _bond_sums(spec: ChainSpec) -> tuple:
    """S1 = sum s, S2 = sum s**2, C = sum s(i-1) s(i) over the scaled
    integers s = D*F of the dispersion, and the scale D."""
    disp = dispersion(spec)
    s = disp.scaled
    square = sum(map(operator.mul, s, s))
    cross = sum(map(operator.mul, s, s[1:]))
    return sum(s), square, cross, disp.energy_scale


def closed_form_moments(spec: ChainSpec) -> SpectrumStats:
    """Mean and variance of the chain spectrum from the dispersion alone.

    The three bond sums of :func:`_bond_sums` are integers, so only the
    two results are Fractions:

        mu     = (m - eps) S1 / (2 m D)
        sigma2 = (m**2 - 1) (3 S2 - 2 C) / (12 m**2 D**2).
    """
    first, square, cross, scale = _bond_sums(spec)
    m = spec.m
    mu = Fraction((m - spec.epsilon) * first, 2 * m * scale)
    sigma2 = Fraction((m * m - 1) * (3 * square - 2 * cross), 12 * m * m * scale * scale)
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
    correction that decays like 1/N.  In the bond sums of :func:`_bond_sums`
    it is exactly S2 / (3 S2 - 2 C), so the absolute deviation from 1 is the
    ratio of integers 2 |S2 - C| / (3 S2 - 2 C), converted to float once.
    Raises ValidationError for m = 1, whose spectrum has zero width.
    """
    if spec.m == 1:
        raise ValidationError("the variance identity needs m >= 2; at m = 1 sigma2 is 0")
    _, square, cross, _ = _bond_sums(spec)
    return 2 * abs(square - cross) / (3 * square - 2 * cross)
