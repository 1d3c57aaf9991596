"""Transfer matrices, their exact diagonalisation, and the characteristic
function of the level density.

The partition function of any of the three chains factors into an ordered
product of m x m Toeplitz matrices, one per bond.  On the unit circle each
factor T(omega) has a closed-form unitary diagonalisation with eigenvalues
of modulus at most one, which is what makes long products stable and lets
the normalized characteristic function

    phi(t) = exp(-i mu t / sigma) * (1/m) * sum of entries of
             T(omega_1) T(omega_2) ... T(omega_{N-1})

be evaluated for thousands of spins in double precision.  The asymptotic
approximation keeps only the top eigenvalue of each factor; the gap between
the two shrinks like N**-0.5 and both approach the Gaussian exp(-t**2/2).

T(omega) is 1/m where the pairing rule (:func:`hschain.motifs.delta_bits`)
gives 0 and omega**m / m where it gives 1; only :func:`charfn_exact` builds
it.  Its eigensystem is :func:`eigenvalues` plus :func:`eigenvector_matrix`.

Everything here assumes the ungraded pairing rules.  The graded (susy) rule
produces a non-Toeplitz transfer matrix and is deliberately not handled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ANTIFERRO, FERRO, ChainSpec, dispersion, normalized_dispersion
from .errors import ValidationError
from .moments import SpectrumStats, closed_form_moments, variance_identity_residual
from .motifs import delta_bits, rule_for
from .table import DensityTable

QUOTIENT_FORM_TOL = 1e-8

# Bytes of one complex work array of the characteristic-function products:
# the bond factors of one block of bonds in charfn_exact, the phases of one
# chunk of t rows in charfn_asymptotic.
_CHUNK_BYTES = 1 << 19


def eigenvalues(omega, m: int) -> np.ndarray:
    """All eigenvalues of T(omega): lambda_k = mean of (omega*e^(2 pi i k/m))**l.

    Valid for arbitrary complex omega.  Index k-1 of the last axis holds
    lambda_k; the principal eigenvalue lambda_m sits at index m-1 and is the
    only one that survives at omega = 1.
    """
    omega = np.asarray(omega, dtype=complex)
    roots = np.exp(2j * np.pi * np.arange(1, m + 1) / m)
    z = omega[..., None] * roots
    acc = np.zeros(z.shape, dtype=complex)
    power = np.ones(z.shape, dtype=complex)
    for _ in range(m):
        acc += power
        power = power * z
    return acc / m


def eigenvector_matrix(omega, m: int) -> np.ndarray:
    """Unitary U(omega) whose k-th column is the eigenvector for lambda_k.

    U[n-1, k-1] = (omega * e^(2 pi i k/m))**(m-n) / sqrt(m).  Unitary only
    for unimodular omega.  Broadcasts over leading axes of `omega`.
    """
    omega = np.asarray(omega, dtype=complex)
    roots = np.exp(2j * np.pi * np.arange(1, m + 1) / m)
    z = omega[..., None] * roots
    powers = np.arange(m - 1, -1, -1.0)
    return z[..., None, :] ** powers[:, None] / np.sqrt(m)


def column_sum_residual(omega, m: int) -> np.ndarray:
    """Deviation of |sum_n U_nk|**2 from m*delta_km, per column k.

    The full double sum over U_nk * conj(U_n'k) collapses to the squared
    modulus of the column sum; for unimodular omega it is m for the last
    column and 0 for all others.
    """
    u = eigenvector_matrix(omega, m)
    value = np.abs(u.sum(axis=-2)) ** 2
    target = np.zeros(m)
    target[m - 1] = m
    return np.abs(value - target)


def top_eigenvalue_from_phase(x, m: int) -> np.ndarray:
    """Principal eigenvalue lambda_m(e^(i x)) for real phase x.

    Uses the closed quotient (e^(i m x) - 1) / (m (e^(i x) - 1)) away from
    the removable singularities at x in 2 pi Z, and the (everywhere valid)
    geometric sum of m terms near them; the sum is evaluated only on the
    phases within QUOTIENT_FORM_TOL of 2 pi Z, which a grid rarely hits.
    """
    x = np.asarray(x, dtype=float)
    z = np.exp(1j * x)
    gap = z - 1.0
    safe = np.abs(gap) > QUOTIENT_FORM_TOL
    lam = np.asarray((np.exp(1j * m * x) - 1.0) / (m * np.where(safe, gap, 1.0)))
    near = ~safe
    xs = x[near]
    ssum = np.zeros(xs.shape, dtype=complex)
    for l in range(m):
        ssum += np.exp(1j * l * xs)
    lam[near] = ssum / m
    return lam


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------


def default_t_grid(t_max: float = 6.0, points: int = 241) -> np.ndarray:
    """Symmetric uniform grid on [-t_max, t_max]; symmetric so the
    conjugation property of the characteristic function is testable."""
    return np.linspace(-t_max, t_max, points)


def _stats_and_grid(spec: ChainSpec, stats: SpectrumStats | None, t_grid):
    """The moments (closed form unless given), checked for a positive width,
    and the t values (:func:`default_t_grid` unless given) as floats."""
    if stats is None:
        stats = closed_form_moments(spec)
    if not stats.sigma > 0:
        raise ValidationError("characteristic function needs a positive spectral width")
    return stats, np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)


def charfn_exact(spec: ChainSpec, stats: SpectrumStats | None = None, t_grid=None) -> np.ndarray:
    """Exact normalized characteristic function on a grid of t values.

    Accumulates a row vector through the ordered product of all N-1 bond
    transfer matrices, then sums the entries.  Cost O(N m**2) per t value;
    every factor has spectral radius <= 1 on the unit circle, so rounding
    stays benign even for thousands of bonds.

    Each bond costs one vector-matrix product per t value (an einsum over
    the grid).  The factors themselves are built a block of bonds at a
    time, with one exp over the block's (bond, t) phases and one select
    between 1/m and omega**m / m by the pairing mask.  A block holds about
    ``_CHUNK_BYTES`` (512 KiB) of factors, or one bond's where those are
    larger, so the memory does not grow with N.
    """
    stats, t = _stats_and_grid(spec, stats, t_grid)
    m = spec.m
    gam = normalized_dispersion(spec, stats.sigma)
    k = np.arange(1, m + 1)
    mask = delta_bits(rule_for(spec), k[:, None], k[None, :], m)
    block = max(1, _CHUNK_BYTES // (16 * m * m * max(1, t.size)))
    row = np.ones(t.shape + (m,), dtype=complex)
    for lo in range(0, gam.size, block):
        g = gam[lo : lo + block].reshape((-1,) + (1,) * t.ndim)
        w = np.exp(1j * (m * g) * t)
        v = ((w - 1.0) + 1.0) / m
        for factor in np.where(mask, v[..., None, None], complex(1 / m)):
            row = np.einsum("...k,...kl->...l", row, factor)
    center = np.exp(-1j * (float(stats.mu) / stats.sigma) * t)
    return center * row.sum(axis=-1) / m


def charfn_asymptotic(spec: ChainSpec, stats: SpectrumStats | None = None, t_grid=None) -> np.ndarray:
    """Top-eigenvalue approximation of the characteristic function.

    Multiplies the principal eigenvalue of every bond factor and restores
    the centering phase.  For the antiferromagnetic sign the spectrum is
    the mirror image of the ferromagnetic one, so the value is the complex
    conjugate of the ferromagnetic approximation.

    The (t, bond) phases are taken a chunk of t values at a time, each
    chunk about ``_CHUNK_BYTES`` (512 KiB) of complex values, or one t
    value's where those are larger, and reduced to its products before the
    next, so the memory does not grow with the number of t values times N.
    """
    stats, t = _stats_and_grid(spec, stats, t_grid)
    if spec.epsilon == ANTIFERRO:
        mu_ferro = dispersion(spec).total - stats.mu
    else:
        mu_ferro = stats.mu
    gam = normalized_dispersion(spec, stats.sigma)
    flat = t.reshape(-1)
    rows = max(1, _CHUNK_BYTES // (16 * gam.size))
    product = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, rows):
        phases = flat[lo : lo + rows, None] * gam
        product[lo : lo + rows] = top_eigenvalue_from_phase(phases, spec.m).prod(axis=-1)
    # [()] makes a scalar t's product a scalar, multiplied as one, like the
    # product over its whole phase array; numpy's scalar and array complex
    # multiplies round differently
    value = np.exp(-1j * (float(mu_ferro) / stats.sigma) * t) * product.reshape(t.shape)[()]
    return value if spec.epsilon == FERRO else np.conj(value)


def charfn_from_density(density: DensityTable, stats: SpectrumStats, t_grid) -> np.ndarray:
    """Characteristic function evaluated directly from an exact density.

    Reference route for consistency checks: a plain phase-weighted sum over
    the levels.  Degeneracies beyond 2**53 would lose precision in the
    float conversion, so keep cross-checks below that.
    """
    t = np.asarray(t_grid, dtype=float)
    energies = density.levels() / density.energy_scale
    weights = np.fromiter(map(float, density.degeneracies), dtype=float, count=len(density))
    phases = np.exp(1j * np.outer(t / stats.sigma, energies))
    center = np.exp(-1j * (float(stats.mu) / stats.sigma) * t)
    return center * (phases @ weights) / float(density.total)


@dataclass(frozen=True)
class CharFnSeries:
    """Sampled characteristic function with its two reference curves."""

    t_grid: np.ndarray
    exact_values: np.ndarray
    asymptotic_values: np.ndarray
    gaussian_ref: np.ndarray


def charfn_series(spec: ChainSpec, stats: SpectrumStats | None = None, t_grid=None) -> CharFnSeries:
    stats, t = _stats_and_grid(spec, stats, t_grid)
    return CharFnSeries(
        t_grid=t,
        exact_values=charfn_exact(spec, stats, t),
        asymptotic_values=charfn_asymptotic(spec, stats, t),
        gaussian_ref=np.exp(-t * t / 2.0),
    )


# ---------------------------------------------------------------------------
# large-N diagnostics
# ---------------------------------------------------------------------------


def bond_overlap_residual(spec: ChainSpec, t: float, stats: SpectrumStats | None = None) -> float:
    """Largest entrywise deviation from the identity of the overlap between
    eigenbases of consecutive bond factors, at one fixed t.

    The overlap U(j)[dagger] U(j+1) approaches the identity at the same
    N**-1.5 rate as the step between consecutive normalized bond weights.
    """
    if stats is None:
        stats = closed_form_moments(spec)
    gam = normalized_dispersion(spec, stats.sigma)
    u = eigenvector_matrix(np.exp(1j * gam * t), spec.m)
    overlap = np.einsum("jnk,jnl->jkl", u[:-1].conj(), u[1:])
    return float(np.abs(overlap - np.eye(spec.m)).max())


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm deviations of the characteristic function over an N sweep."""

    n_values: tuple
    gauss_deviation: np.ndarray
    asym_deviation: np.ndarray
    gauss_slope: float
    asym_slope: float


def convergence_report(
    family: str,
    m: int,
    epsilon: int = FERRO,
    n_values=(16, 32, 64, 128, 256, 512, 1024),
    t_grid=None,
    alpha=None,
) -> ConvergenceReport:
    """Distance to the Gaussian and to the top-eigenvalue approximation,
    for a sweep of chain sizes, with fitted log-log decay slopes.

    Raises
    ------
    ValidationError
        If the sweep has fewer than two distinct N, through which no slope
        can be fitted.
    """
    if len({int(n) for n in n_values}) < 2:
        raise ValidationError(
            f"convergence sweep {tuple(n_values)} has one N; fitting a slope needs two distinct N"
        )
    t = np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)
    gauss = np.exp(-t * t / 2.0)
    d_gauss, d_asym = [], []
    for n in n_values:
        spec = ChainSpec(family, int(n), m, epsilon, alpha)
        stats = closed_form_moments(spec)
        exact = charfn_exact(spec, stats, t)
        asym = charfn_asymptotic(spec, stats, t)
        d_gauss.append(float(np.abs(exact - gauss).max()))
        d_asym.append(float(np.abs(exact - asym).max()))
    logn = np.log(np.asarray(n_values, dtype=float))
    gauss_slope = float(np.polyfit(logn, np.log(d_gauss), 1)[0])
    asym_slope = float(np.polyfit(logn, np.log(d_asym), 1)[0])
    return ConvergenceReport(
        n_values=tuple(int(n) for n in n_values),
        gauss_deviation=np.asarray(d_gauss),
        asym_deviation=np.asarray(d_asym),
        gauss_slope=gauss_slope,
        asym_slope=asym_slope,
    )


def asymptotic_sweep(
    family: str,
    m: int,
    epsilon: int = FERRO,
    n_values=(16, 32, 64, 128, 256, 512, 1024),
    alpha=None,
    t: float = 3.0,
) -> dict:
    """Scaled large-N diagnostics along a sweep of chain sizes.

    Each returned series is already multiplied by the power of N that the
    asymptotics predict should make it level off:

    - "weight_peak": largest normalized bond weight, times sqrt(N)
    - "weight_step": largest step between consecutive weights, times N**1.5
    - "bond_overlap": eigenbasis overlap deviation at the given t, times N**1.5
    - "variance_residual": deviation of the weight-square sum from its
      limit, times N
    """
    out = {"n": np.asarray(n_values, dtype=float), "weight_peak": [], "weight_step": [],
           "bond_overlap": [], "variance_residual": []}
    for n in n_values:
        spec = ChainSpec(family, int(n), m, epsilon, alpha)
        stats = closed_form_moments(spec)
        gam = normalized_dispersion(spec, stats.sigma)
        out["weight_peak"].append(gam.max() * np.sqrt(n))
        out["weight_step"].append(np.abs(np.diff(gam)).max() * n ** 1.5)
        out["bond_overlap"].append(bond_overlap_residual(spec, t, stats) * n ** 1.5)
        out["variance_residual"].append(variance_identity_residual(spec) * n)
    for key in ("weight_peak", "weight_step", "bond_overlap", "variance_residual"):
        out[key] = np.asarray(out[key])
    return out
