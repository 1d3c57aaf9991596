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
:class:`~hschain.density.LevelSupport`.  It maps the level array, a piece
at a time, through one numpy kernel for erfc, W. J. Cody's rational
approximations (Math. Comp. 23 (1969) 631), within 8 ulp of ``math.erfc``
below its underflow, and keeps each tail in its own form, erfc(|z|)/2, so
that neither tail rounds to exactly 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import LevelMasses, LevelSupport
from .errors import ValidationError
from .moments import SpectrumStats
from .table import _CHUNK_BYTES, DensityTable

# Cody's CALERF: erf(y) = y P(y**2)/Q(y**2) up to the first break, then
# erfc(y) = exp(-y**2) P(y)/Q(y) up to the second, then
# erfc(y) = exp(-y**2) (1/sqrt(pi) - w P(w)/Q(w)) / y with w = 1/y**2, and 0
# past the last break, where erfc(y) < 2.3e-308 is no longer a normal float.
# Numerators are in Horner order, highest power first, with the constant
# last; denominators are monic and list the rest in the same order.
_CODY_BREAKS = (0.46875, 4.0, 26.543)
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
            3.77485237685302021e2, 3.20937758913846947e3)
_ERF_DEN = (2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
            2.84423683343917062e3)
_ERFC_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
             6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
             1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3)
_ERFC_DEN = (1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
             1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
             3.43936767414372164e3, 1.23033935480374942e3)
_ERFC_ASYM_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
                  1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_ASYM_DEN = (2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
                  6.05183413124413191e-2, 2.33520497626869185e-3)
_RECIPROCAL_SQRT_PI = 5.6418958354775628695e-1


def _rational(x: np.ndarray, num, den) -> np.ndarray:
    """num(x) / den(x) by Horner's rule, for Cody's coefficient layout."""
    p = num[0] * x
    q = x.copy()
    for a, b in zip(num[1:-1], den[:-1]):
        p += a
        p *= x
        q += b
        q *= x
    return (p + num[-1]) / (q + den[-1])


def _erfc(y: np.ndarray) -> np.ndarray:
    """erfc of an ascending float array of nonnegative values.

    Each of Cody's three ranges is one contiguous slice, found by binary
    search.  exp(-y**2) is taken as exp(-s**2) exp(-(y - s)(y + s)) with
    s = y rounded down to a multiple of 1/16, whose square is exact, so the
    rounding of y**2 is not magnified.  Every operation is elementwise, so a
    value does not depend on the rest of the array.
    """
    small, mid, big = np.searchsorted(y, _CODY_BREAKS, side="right")
    out = np.empty_like(y)
    # 0 past the last break, where a NaN, sorted last, stays NaN
    np.minimum(y[big:], 0.0, out=out[big:])
    x = y[:small]
    out[:small] = 1.0 - x * _rational(x * x, _ERF_NUM, _ERF_DEN)
    out[small:mid] = _rational(y[small:mid], _ERFC_NUM, _ERFC_DEN)
    x = y[mid:big]
    w = 1.0 / (x * x)
    out[mid:big] = (_RECIPROCAL_SQRT_PI - w * _rational(w, _ERFC_ASYM_NUM, _ERFC_ASYM_DEN)) / x
    x = y[small:big]
    s = np.floor(16.0 * x) / 16.0
    out[small:big] *= np.exp(-s * s) * np.exp(-(x - s) * (x + s))
    return out


def poisson_reference(s) -> np.ndarray:
    return np.exp(-np.asarray(s, dtype=float))


def wigner_reference(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return 0.5 * math.pi * s * np.exp(-math.pi * s * s / 4.0)


@dataclass(frozen=True)
class UnfoldedSpectrum:
    """Distinct levels pushed through the Gaussian cumulative density,
    held tail by tail.

    ``tail`` is erfc(|z|)/2 of each level's standard score z, and the
    first ``split`` levels are those with z <= 0.  Their cumulative
    density is ``tail`` itself; above the split it is ``1 - tail``.  The
    cumulative densities are strictly increasing in (0, 1) apart from the
    ``underflow`` levels, whose tail is 0 or subnormal: ``tail`` rises
    strictly up to the split and falls strictly after it, and the gap
    across the split is positive.  ``eta`` spells them out as one float
    array, where an upper tail below 2**-54 does round to 1, so spacings
    are taken from the tail form.
    """

    tail: np.ndarray
    split: int

    def __post_init__(self):
        if not 0 <= self.split <= self.tail.size:
            raise ValidationError(f"split {self.split} is outside 0..{self.tail.size}")

    def __len__(self) -> int:
        return self.tail.size

    @property
    def eta(self) -> np.ndarray:
        """The cumulative density of every level, one float array."""
        eta = self.tail.copy()
        np.subtract(1.0, eta[self.split:], out=eta[self.split:])
        return eta

    @property
    def underflow(self) -> int:
        """How many levels have a tail of 0 or a subnormal one, which may
        tie with or lose precision against their neighbours."""
        return int(np.count_nonzero(self.tail < np.finfo(float).tiny))


def unfold(density: DensityTable | LevelSupport, stats: SpectrumStats) -> UnfoldedSpectrum:
    """Push the distinct levels of a :class:`DensityTable` or a
    :class:`~hschain.density.LevelSupport` through the Gaussian CDF.

    A level's standard score is z = (E - mu) / (sqrt(2) sigma), and its
    value of ``eta`` is (1 + erf(z)) / 2, held as erfc(|z|)/2 in ``tail``.
    Scaled energies are integers below 2**53, so the int64 to float64
    conversion is exact and the division by ``energy_scale`` rounds as
    ``float(Fraction(e, energy_scale))`` does: each value is the one a
    per-level loop over the same float operations gives, bit for bit.
    """
    if len(density) < 3:
        raise ValidationError(f"unfolding needs at least 3 distinct levels, got {len(density)}")
    return _tail_form(density, stats)


def _tail_form(density, stats: SpectrumStats) -> UnfoldedSpectrum:
    """The tail form of every level of a density, in one float array.

    The standard scores are formed in place in the array that becomes
    ``tail``, with the same roundings as (E - mu) / (sqrt(2) sigma).  The
    kernel then overwrites them over pieces of ``_CHUNK_BYTES``, so that
    its temporaries stay in cache, and walks the lower tail down from the
    split, so that |z| ascends there too.
    """
    if not stats.sigma > 0:
        raise ValidationError("sigma must be positive")
    z = density.levels() / density.energy_scale
    z -= float(stats.mu)
    z /= math.sqrt(2.0) * float(stats.sigma)
    split = int(np.searchsorted(z, 0.0, side="right"))
    piece = _CHUNK_BYTES // z.itemsize
    for scores in (z[:split][::-1], z[split:]):
        for start in range(0, scores.size, piece):
            chunk = scores[start:start + piece]
            np.multiply(_erfc(np.abs(chunk)), 0.5, out=chunk)
    return UnfoldedSpectrum(tail=z, split=split)


def normalized_spacings(unfolded: UnfoldedSpectrum) -> np.ndarray:
    """Consecutive gaps divided by their average, so the mean is exactly 1
    up to a single floating division.

    Each gap is a difference within one tail, apart from the one across
    the split, (1 - Q_first) - Phi_last, so the far tails keep their
    digits.
    """
    tail, split = unfolded.tail, unfolded.split
    n = tail.size
    if n < 2:
        raise ValidationError("need at least 2 unfolded levels")
    if split == n:
        span = tail[-1] - tail[0]
    elif split == 0:
        span = tail[0] - tail[-1]
    else:
        span = (1.0 - tail[-1]) - tail[0]
    if span <= 0:
        raise ValidationError("unfolded spectrum is degenerate, all levels equal")
    gaps = np.empty(n - 1)
    lower = max(split - 1, 0)
    np.subtract(tail[1:split], tail[:lower], out=gaps[:lower])
    np.subtract(tail[split:-1], tail[split + 1:], out=gaps[split:])
    if 0 < split < n:
        gaps[lower] = (1.0 - tail[split]) - tail[lower]
    gaps /= span / (n - 1)
    return gaps


class SpacingHistogram(NamedTuple):
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


def default_spacing_bins(s_max: float = 4.0, bins: int = 40) -> np.ndarray:
    return np.linspace(0.0, s_max, bins + 1)


def spacing_distribution(unfolded: UnfoldedSpectrum, bins=None) -> SpacingHistogram:
    """Histogram of normalized spacings over the requested bins.

    Normalized by the in-range count, so the histogram always integrates
    to exactly 1 even when a few large spacings fall past the last edge.
    """
    edges = np.asarray(default_spacing_bins() if bins is None else bins, dtype=float)
    if not (edges.ndim == 1 and edges.size >= 2 and np.all(np.isfinite(edges))
            and np.all(np.diff(edges) > 0)):
        raise ValidationError("bin edges must be at least two finite, strictly increasing values")
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
    is the ``eta`` of :func:`unfold`, and the steps are the density's
    ``cdf_steps()``.  For a :class:`DensityTable` each step is the exact
    running count divided by the total in one correctly rounded true
    division, so the result equals, bit for bit, a per-level loop over the
    same float operations; the float masses of
    :func:`~hschain.density.level_masses` give it to within about 1e-14.
    """
    if len(density) == 0:
        raise ValidationError("density is empty")
    gauss = _tail_form(density, stats).eta
    steps = density.cdf_steps()
    below = np.abs(steps[:-1] - gauss).max(initial=0.0)
    above = np.abs(steps[1:] - gauss).max(initial=0.0)
    return float(max(below, above))
