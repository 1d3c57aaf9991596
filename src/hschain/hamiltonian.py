"""Dense spin-chain Hamiltonians as an independent check on the motif rules.

The three chains are defined by pairwise spin exchanges with strengths set
by the site geometry: inverse sin**2 on the uniform circle lattice,
inverse square distance at the Hermite zeros, inverse sinh**2 at half the
log of the Laguerre zeros.  Building the dense matrix, diagonalising it
with plain Jacobi rotations, and comparing the eigenvalue multiset with
the motif spectrum exercises a completely different code path from the
counting backends: floating point instead of exact integers, site
geometry instead of the dispersion sequence.

Only small chains are in scope (the dense dimension is m**N); everything
here favours transparency over speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainSpec
from .density import density_dp
from .errors import CapacityError, ConvergenceError, ValidationError
from .table import DensityTable

DEFAULT_SITE_CAP = 8
DEFAULT_DENSE_CAP = 4096
ZERO_RESIDUAL_TOL = 1e-10
JACOBI_OFF_TOL = 1e-10


def _orthopoly_zeros(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, float]:
    """Zeros of the degree-n orthogonal polynomial with the given Jacobi
    recurrence coefficients, plus the worst recurrence residual.

    Eigenvalues of the symmetric tridiagonal Jacobi matrix give the zeros;
    one Newton step on the orthonormal three-term recurrence then polishes
    them.  The residual is the Newton correction length |p/p'| at the
    refined zeros, i.e. the remaining root error in coordinate units; the
    raw polynomial value would not be scale-free.
    """
    n = diag.size
    jac = np.diag(diag)
    if n > 1:
        jac += np.diag(offdiag, 1) + np.diag(offdiag, -1)
    x = np.linalg.eigvalsh(jac)

    def recurrence(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_prev = np.zeros_like(points)
        p = np.ones_like(points)
        d_prev = np.zeros_like(points)
        d = np.zeros_like(points)
        for k in range(n):
            scale = offdiag[k] if k < n - 1 else 1.0
            p_next = ((points - diag[k]) * p - (offdiag[k - 1] if k else 0.0) * p_prev) / scale
            d_next = (p + (points - diag[k]) * d - (offdiag[k - 1] if k else 0.0) * d_prev) / scale
            p_prev, p = p, p_next
            d_prev, d = d, d_next
        return p, d

    value, slope = recurrence(x)
    safe = np.where(slope == 0.0, 1.0, slope)
    x = x - value / safe
    value, slope = recurrence(x)
    safe = np.where(slope == 0.0, 1.0, slope)
    return x, float(np.abs(value / safe).max())


@dataclass(frozen=True)
class SiteLayout:
    """Ordered site coordinates of one chain, with the zero-finding
    residual (0 for the closed-form circle lattice)."""

    xi: np.ndarray
    residual: float


def chain_sites(spec: ChainSpec, cap: int = DEFAULT_SITE_CAP) -> SiteLayout:
    """Site coordinates for the chain geometry of `spec`.

    Uniform angles k*pi/N for the trigonometric chain; Hermite zeros for
    the rational one; half the log of the generalized-Laguerre zeros for
    the hyperbolic one.  Zeros come from the Jacobi-matrix eigenvalue
    method with one Newton polish; a residual above the tolerance is an
    error rather than a warning.
    """
    n = spec.n_spins
    if n > cap:
        raise CapacityError(f"chain_sites supports N <= {cap}, got N = {n}")
    if spec.family == "HS":
        xi = np.arange(1, n + 1) * (math.pi / n)
        return SiteLayout(xi=xi, residual=0.0)
    if spec.family == "PF":
        diag = np.zeros(n)
        offdiag = np.sqrt(np.arange(1, n) / 2.0)
    else:
        beta = float(spec.alpha) - 1.0
        k = np.arange(n, dtype=float)
        diag = 2.0 * k + beta + 1.0
        offdiag = np.sqrt(np.arange(1, n) * (np.arange(1, n) + beta))
    zeros, residual = _orthopoly_zeros(diag, offdiag)
    if residual > ZERO_RESIDUAL_TOL:
        raise ConvergenceError(
            f"orthogonal-polynomial zeros did not converge: residual {residual:.3e}"
        )
    if spec.family == "FI":
        if zeros.min() <= 0.0:
            raise ValidationError("Laguerre zeros must be positive")
        zeros = 0.5 * np.log(zeros)
    return SiteLayout(xi=zeros, residual=residual)


@dataclass(frozen=True)
class DenseOperator:
    """Real symmetric operator on the full m**N spin basis."""

    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def exchange_coefficients(spec: ChainSpec, layout: SiteLayout | None = None) -> np.ndarray:
    """Strictly-upper-triangular matrix of pair strengths h_ij."""
    if layout is None:
        layout = chain_sites(spec, cap=spec.n_spins)
    xi = layout.xi
    gap = xi[:, None] - xi[None, :]
    coef = np.zeros_like(gap)
    upper = np.triu_indices(spec.n_spins, 1)
    if spec.family == "HS":
        coef[upper] = 0.5 / np.sin(gap[upper]) ** 2
    elif spec.family == "PF":
        coef[upper] = 1.0 / gap[upper] ** 2
    else:
        coef[upper] = 0.5 / np.sinh(gap[upper]) ** 2
    return coef


def build_hamiltonian(spec: ChainSpec, cap: int = DEFAULT_DENSE_CAP) -> DenseOperator:
    """Dense Hamiltonian sum of h_ij (1 - epsilon * exchange of spins i, j).

    The exchange acts by permuting base-m digits of the basis index, so
    each pair contributes one diagonal shift and one permutation matrix.
    Exactly symmetric by construction.
    """
    dim = spec.n_states
    if dim > cap:
        raise CapacityError(f"dense Hamiltonian supports m**N <= {cap}, got {dim}")
    n, m = spec.n_spins, spec.m
    coef = exchange_coefficients(spec)
    weight = m ** np.arange(n - 1, -1, -1)
    idx = np.arange(dim)
    digits = (idx[:, None] // weight[None, :]) % m
    h = np.zeros((dim, dim))
    for i in range(n - 1):
        for j in range(i + 1, n):
            swapped = idx + (digits[:, j] - digits[:, i]) * (weight[i] - weight[j])
            h[idx, idx] += coef[i, j]
            h[idx, swapped] -= spec.epsilon * coef[i, j]
    return DenseOperator(matrix=h)


def jacobi_eigenvalues(
    matrix: np.ndarray, off_tol: float = JACOBI_OFF_TOL, max_sweeps: int = 60
) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Deliberately not a LAPACK call: the point of this module is an
    independent route.  Sweeps rotate every strict upper pair in turn until
    the off-diagonal Frobenius norm falls below `off_tol`.  Ascending.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("jacobi_eigenvalues needs a square matrix")
    if not np.array_equal(a, a.T):
        raise ValidationError("jacobi_eigenvalues needs an exactly symmetric matrix")
    dim = a.shape[0]
    if dim == 1:
        return a.diagonal().copy()

    def off_norm() -> float:
        # summed from the off-diagonal entries themselves; subtracting the
        # diagonal from the total Frobenius norm would cancel catastrophically
        gap = a - np.diag(a.diagonal())
        return math.sqrt(float((gap * gap).sum()))

    for _ in range(max_sweeps):
        if off_norm() < off_tol:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                theta = float(a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                if s == 0.0:
                    # pivot far below the diagonal gap's floating resolution
                    continue
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
    else:
        if off_norm() >= off_tol:
            raise ConvergenceError(
                f"Jacobi sweeps exhausted with off-diagonal norm {off_norm():.3e}"
            )
    return np.sort(a.diagonal())


def _multiplicity_pattern(values: np.ndarray, tol: float) -> tuple[int, ...]:
    """Cluster ascending values whose gaps stay below tol; return sizes."""
    sizes = [1]
    for gap in np.diff(values):
        if gap > tol:
            sizes.append(1)
        else:
            sizes[-1] += 1
    return tuple(sizes)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of matching dense eigenvalues against the motif multiset."""

    spec: ChainSpec
    eigenvalues: np.ndarray
    motif_values: np.ndarray
    direct_deviation: float
    affine_scale: float
    affine_offset: float
    affine_deviation: float
    eigen_multiplicities: tuple
    motif_multiplicities: tuple

    @property
    def multiplicities_match(self) -> bool:
        return self.eigen_multiplicities == self.motif_multiplicities

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "motif_values": [float(v) for v in self.motif_values],
            "direct_deviation": self.direct_deviation,
            "affine_scale": self.affine_scale,
            "affine_offset": self.affine_offset,
            "affine_deviation": self.affine_deviation,
            "eigen_multiplicities": list(self.eigen_multiplicities),
            "motif_multiplicities": list(self.motif_multiplicities),
            "multiplicities_match": self.multiplicities_match,
        }


def _expand_density(density: DensityTable) -> tuple[np.ndarray, tuple]:
    """Every level's energy repeated by its degeneracy, and the degeneracies."""
    energies = density.levels() / density.energy_scale
    return np.repeat(energies, density.degeneracies), density.degeneracies


def oracle_compare(
    spec: ChainSpec,
    dense_cap: int = DEFAULT_DENSE_CAP,
    cluster_tol: float = 1e-6,
) -> OracleReport:
    """Diagonalize the dense Hamiltonian and line its spectrum up against
    the motif energies.

    Reports the raw sorted-multiset deviation and the deviation after the
    affine map that matches mean and variance.  The affine pass is the
    robust contract (an overall scale or shift between the two routes
    would not invalidate the counting); the direct number documents the
    normalization actually observed.  Multiplicity patterns must agree
    exactly, clustered at `cluster_tol` times the spectral spread.
    """
    operator = build_hamiltonian(spec, cap=dense_cap)
    eig = jacobi_eigenvalues(operator.matrix)
    motif_values, motif_sizes = _expand_density(density_dp(spec))

    direct = float(np.abs(eig - motif_values).max())
    spread = float(motif_values.max() - motif_values.min())
    eig_std = float(eig.std())
    motif_std = float(motif_values.std())
    scale = motif_std / eig_std if eig_std > 0 else 1.0
    offset = float(motif_values.mean()) - scale * float(eig.mean())
    affine = float(np.abs(scale * eig + offset - motif_values).max())
    gap_tol = cluster_tol * max(1.0, spread)
    return OracleReport(
        spec=spec,
        eigenvalues=eig,
        motif_values=motif_values,
        direct_deviation=direct,
        affine_scale=scale,
        affine_offset=offset,
        affine_deviation=affine,
        eigen_multiplicities=_multiplicity_pattern(eig, gap_tol),
        motif_multiplicities=motif_sizes,
    )
