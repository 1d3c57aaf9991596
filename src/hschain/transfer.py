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

Everything here assumes the ungraded pairing rules.  The graded (susy) rule
produces a non-Toeplitz transfer matrix and is deliberately not handled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ANTIFERRO, FERRO, ChainSpec, dispersion, normalized_dispersion
from .errors import ValidationError
from .moments import SpectrumStats, closed_form_moments
from .table import DensityTable

UNIT_CIRCLE_TOL = 1e-12
QUOTIENT_FORM_TOL = 1e-8


def _delta_mask(m: int, epsilon: int) -> np.ndarray:
    """0/1 matrix of the pairing rule over value pairs (row, column)."""
    k = np.arange(1, m + 1)
    if epsilon == FERRO:
        return (k[:, None] < k[None, :]).astype(float)
    return (k[:, None] >= k[None, :]).astype(float)


@dataclass(frozen=True)
class TransferMatrix:
    """One bond factor T(omega) under the ferro rule.

    Entries are 1/m on and below the diagonal and omega**m / m above it;
    at omega = 1 every entry is 1/m.
    """

    omega: complex
    matrix: np.ndarray


def transfer_matrix(omega: complex, m: int) -> TransferMatrix:
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    omega = complex(omega)
    mat = (np.ones((m, m), dtype=complex) + (omega ** m - 1.0) * _delta_mask(m, FERRO)) / m
    return TransferMatrix(omega=omega, matrix=mat)


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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Closed-form eigensystem of T(omega) for unimodular omega."""

    omega: complex
    eigenvalues: np.ndarray
    u: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        """U D U[dagger]; equals T(omega) up to rounding."""
        return (self.u * self.eigenvalues[None, :]) @ self.u.conj().T


def eigen_decompose(omega: complex, m: int, tol: float = UNIT_CIRCLE_TOL) -> SpectralDecomposition:
    """Analytic eigensystem of the transfer matrix; no iterative solver.

    Raises
    ------
    ValidationError
        If omega is not on the unit circle to within `tol`; the closed-form
        U is only unitary there.
    """
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > tol:
        raise ValidationError(f"omega must be unimodular, got |omega| = {abs(omega)!r}")
    return SpectralDecomposition(
        omega=omega, eigenvalues=eigenvalues(omega, m), u=eigenvector_matrix(omega, m)
    )


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
    the removable singularities at x in 2 pi Z and the (everywhere valid)
    geometric sum near them.
    """
    x = np.asarray(x, dtype=float)
    z = np.exp(1j * x)
    gap = z - 1.0
    safe = np.abs(gap) > QUOTIENT_FORM_TOL
    quotient = (np.exp(1j * m * x) - 1.0) / (m * np.where(safe, gap, 1.0))
    ssum = np.zeros(x.shape, dtype=complex)
    for l in range(m):
        ssum += np.exp(1j * l * x)
    return np.where(safe, quotient, ssum / m)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------


def default_t_grid(t_max: float = 6.0, points: int = 241) -> np.ndarray:
    """Symmetric uniform grid on [-t_max, t_max]; symmetric so the
    conjugation property of the characteristic function is testable."""
    return np.linspace(-t_max, t_max, points)


def charfn_exact(spec: ChainSpec, stats: SpectrumStats | None = None, t_grid=None) -> np.ndarray:
    """Exact normalized characteristic function on a grid of t values.

    Accumulates a row vector through the ordered product of all N-1 bond
    transfer matrices, then sums the entries.  Cost O(N m**2) per t value;
    every factor has spectral radius <= 1 on the unit circle, so rounding
    stays benign even for thousands of bonds.
    """
    if stats is None:
        stats = closed_form_moments(spec)
    if not stats.sigma > 0:
        raise ValidationError("characteristic function needs a positive spectral width")
    t = np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)
    m = spec.m
    gam = normalized_dispersion(spec, stats.sigma)
    mask = _delta_mask(m, spec.epsilon)
    ones = np.ones((m, m))
    row = np.ones(t.shape + (m,), dtype=complex)
    for g in gam:
        w = np.exp(1j * (m * g) * t)
        factor = (ones + (w[..., None, None] - 1.0) * mask) / m
        row = np.einsum("...k,...kl->...l", row, factor)
    center = np.exp(-1j * (float(stats.mu) / stats.sigma) * t)
    return center * row.sum(axis=-1) / m


def charfn_asymptotic(spec: ChainSpec, stats: SpectrumStats | None = None, t_grid=None) -> np.ndarray:
    """Top-eigenvalue approximation of the characteristic function.

    Multiplies the principal eigenvalue of every bond factor and restores
    the centering phase.  For the antiferromagnetic sign the spectrum is
    the mirror image of the ferromagnetic one, so the value is the complex
    conjugate of the ferromagnetic approximation.
    """
    if stats is None:
        stats = closed_form_moments(spec)
    if not stats.sigma > 0:
        raise ValidationError("characteristic function needs a positive spectral width")
    t = np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)
    if spec.epsilon == ANTIFERRO:
        mu_ferro = dispersion(spec).total - stats.mu
    else:
        mu_ferro = stats.mu
    gam = normalized_dispersion(spec, stats.sigma)
    phases = t[..., None] * gam
    lam = top_eigenvalue_from_phase(phases, spec.m)
    value = np.exp(-1j * (float(mu_ferro) / stats.sigma) * t) * lam.prod(axis=-1)
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
    if stats is None:
        stats = closed_form_moments(spec)
    t = np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)
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
            f"convergence sweep {tuple(n_values)} needs at least two distinct N to fit a slope"
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
    from .moments import variance_identity_residual

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
