"""Spectral unfolding and nearest-neighbour spacing statistics.

The quantum-chaos diagnostics: energies are mapped through the Gaussian
cumulative density with the chain's closed-form mean and width, which
flattens the level density, and the spacings of the unfolded sequence are
compared against the Poisson law exp(-s) of generic integrable systems and
the Wigner surmise (pi s / 2) exp(-pi s**2 / 4) of chaotic ones.  These
chains famously follow neither.

Spacings are taken over distinct levels, degeneracies collapsed, and are
normalized to unit mean by construction.  :func:`unfold` therefore takes
either a :class:`DensityTable` or the cheaper
:class:`~hschain.density.LevelSupport`, and maps the whole level array at
once, with the same float operations, in the same order, as
:func:`gaussian_cdf` applies to one level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import LevelMasses, LevelSupport
from .errors import ValidationError
from .moments import SpectrumStats
from .table import DensityTable


def gaussian_cdf(energy: float, mu, sigma: float) -> float:
    """Gaussian cumulative density (1 + erf((E - mu)/(sqrt(2) sigma))) / 2.

    Delegates the error function to math.erf, the correctly rounded C
    library routine, which sits far below the 1e-12 absolute accuracy this
    module needs.
    """
    return 0.5 * (1.0 + math.erf(_standard_score(float(energy), mu, sigma)))


def _standard_score(energy, mu, sigma):
    """(E - mu) / (sqrt(2) sigma) for a float or a float array."""
    if not sigma > 0:
        raise ValidationError("sigma must be positive")
    return (energy - float(mu)) / (math.sqrt(2.0) * float(sigma))


def poisson_reference(s) -> np.ndarray:
    return np.exp(-np.asarray(s, dtype=float))


def wigner_reference(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 0.5 * math.pi * s * np.exp(-math.pi * s * s / 4.0)


@dataclass(frozen=True)
class UnfoldedSpectrum:
    """Distinct levels pushed through the Gaussian cumulative density;
    strictly increasing values in (0, 1)."""

    eta: np.ndarray

    def __len__(self) -> int:
        return self.eta.size


def unfold(density: DensityTable | LevelSupport, stats: SpectrumStats) -> UnfoldedSpectrum:
    """Push the distinct levels of a :class:`DensityTable` or a
    :class:`~hschain.density.LevelSupport` through the Gaussian CDF.

    Each value equals ``gaussian_cdf(float(density.energy(e)), mu, sigma)``
    bit for bit: scaled energies are integers below 2**53, so the int64 to
    float64 conversion is exact and the division by ``energy_scale`` rounds
    as ``float(Fraction(e, energy_scale))`` does.
    """
    if len(density) < 3:
        raise ValidationError(f"unfolding needs at least 3 distinct levels, got {len(density)}")
    return UnfoldedSpectrum(eta=_gaussian_cdf_of_levels(density, stats))


def _gaussian_cdf_of_levels(density: DensityTable | LevelSupport, stats: SpectrumStats):
    """:func:`gaussian_cdf` of every level, as one float array."""
    z = _standard_score(density.levels() / density.energy_scale, stats.mu, stats.sigma)
    erf = np.fromiter(map(math.erf, z.tolist()), dtype=float, count=z.size)
    return 0.5 * (1.0 + erf)


def normalized_spacings(unfolded: UnfoldedSpectrum) -> np.ndarray:
    """Consecutive gaps divided by their average, so the mean is exactly 1
    up to a single floating division."""
    eta = unfolded.eta
    if eta.size < 2:
        raise ValidationError("need at least 2 unfolded levels")
    span = eta[-1] - eta[0]
    if span <= 0:
        raise ValidationError("unfolded spectrum is degenerate, all levels equal")
    mean_gap = span / (eta.size - 1)
    return np.diff(eta) / mean_gap


@dataclass(frozen=True)
class SpacingHistogram:
    """Normalized spacing histogram with the two reference densities
    tabulated on the bin centers."""

    bin_edges: np.ndarray
    density: np.ndarray
    poisson_ref: np.ndarray
    wigner_ref: np.ndarray
    spacings: np.ndarray

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def mass(self) -> float:
        """Integral of the histogram; 1 by construction."""
        return float((self.density * np.diff(self.bin_edges)).sum())


def default_spacing_bins(s_max: float = 4.0, bins: int = 40) -> np.ndarray:
    return np.linspace(0.0, s_max, bins + 1)


def spacing_distribution(unfolded: UnfoldedSpectrum, bins=None) -> SpacingHistogram:
    """Histogram of normalized spacings over the requested bins.

    Normalized by the in-range count, so the histogram always integrates
    to exactly 1 even when a few large spacings fall past the last edge.
    """
    edges = np.asarray(default_spacing_bins() if bins is None else bins, dtype=float)
    spacings = normalized_spacings(unfolded)
    counts, edges = np.histogram(spacings, bins=edges)
    inside = counts.sum()
    if inside == 0:
        raise ValidationError("no spacings fall inside the requested bins")
    density = counts / (inside * np.diff(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return SpacingHistogram(
        bin_edges=edges,
        density=density,
        poisson_ref=poisson_reference(centers),
        wigner_ref=wigner_reference(centers),
        spacings=spacings,
    )


def ks_distance(density: DensityTable | LevelMasses, stats: SpectrumStats) -> float:
    """Kolmogorov-Smirnov distance between the degeneracy-weighted
    empirical CDF and the Gaussian CDF.

    The empirical CDF is right-continuous; the supremum over a step
    function is reached at a level from one side or the other, so both
    one-sided values are taken at every distinct level.  The Gaussian CDF
    is the one :func:`unfold` computes, and the steps are the density's
    ``cdf_steps()``.  For a :class:`DensityTable` each step is the exact
    running count divided by the total in one correctly rounded true
    division, so the result equals, bit for bit, a per-level loop over
    :func:`gaussian_cdf`; the float masses of
    :func:`~hschain.density.level_masses` give it to within about 1e-14.
    """
    if len(density) == 0:
        raise ValidationError("density is empty")
    gauss = _gaussian_cdf_of_levels(density, stats)
    steps = density.cdf_steps()
    below = np.abs(steps[:-1] - gauss).max(initial=0.0)
    above = np.abs(steps[1:] - gauss).max(initial=0.0)
    return float(max(below, above))
