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
from fractions import Fraction
from typing import NamedTuple

from .chains import ChainSpec, scaled_dispersion_total
from .errors import ValidationError
from .table import DensityTable


class SpectrumStats(NamedTuple):
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
    integers s = D*F of the dispersion, and the scale D.

    Faulhaber's sums make each a polynomial in N, and for FI in p and q of
    alpha = p/q, so no weight is built.  S1 is
    :func:`~hschain.chains.scaled_dispersion_total`, which refuses a chain
    whose weights :func:`~hschain.chains.dispersion` would refuse:

        HS  S2 = S1 (N**2 + 1)/5,  C = S1 (N**2 - 4)/5
        PF  S2 = S1 (2N - 1)/3,    C = 2 S1 (N - 2)/3
        FI  S2 = N(N - 1) [6q**2 N**3 + (15p - 24q) q N**2
                           + (10p**2 - 35pq + 26q**2) N - 5p**2 + 10pq - 4q**2]/30
            C  = N(N - 1)(N - 2) [6q**2 N**2 + (15p - 27q) q N
                                  + 10p**2 - 35pq + 27q**2]/30
    """
    n, first = spec.n_spins, scaled_dispersion_total(spec)
    if spec.family == "HS":
        return first, first * (n * n + 1) // 5, first * (n * n - 4) // 5, 1
    if spec.family == "PF":
        return first, first * (2 * n - 1) // 3, 2 * first * (n - 2) // 3, 1
    p, q = spec.alpha.numerator, spec.alpha.denominator
    square = (((6 * q * n + 15 * p - 24 * q) * q * n + 10 * p * p - 35 * p * q + 26 * q * q) * n
              - 5 * p * p + 10 * p * q - 4 * q * q) * n * (n - 1) // 30
    cross = (((6 * q * n + 15 * p - 27 * q) * q * n + 10 * p * p - 35 * p * q + 27 * q * q)
             * n * (n - 1) * (n - 2) // 30)
    return first, square, cross, q


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
