"""The paper's proof diagnostics, which only the tests evaluate: the
closed-form eigensystem of the bond factor T(omega), the scaled large-N
estimates along a sweep of chain sizes, and the partition function Z(q)
of an exact density in floating point.

T(omega) is 1/m where the ferromagnetic pairing rule
(:func:`hschain.motifs.delta_bits`) gives 0 and omega**m / m where it
gives 1.  Its eigensystem is :func:`eigenvalues` plus
:func:`eigenvector_matrix`; its top eigenvalue is
lambda_m(e^(i x)) = e^(i (m-1) x/2) U_{m-1}(cos(x/2)) / m, with U the
Chebyshev polynomial of the second kind, which is what
:func:`hschain.transfer.charfn_asymptotic` multiplies.
"""

from fractions import Fraction

import numpy as np

from hschain import FERRO, ChainSpec, DensityTable, SpectrumStats, ValidationError
from hschain import closed_form_moments, format_rational, normalized_dispersion
from hschain.moments import _bond_sums


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


def variance_identity_residual(spec: ChainSpec) -> float:
    """Deviation of the normalized squared bond weights from their limit.

    The quantity (1/12) (m**2 - 1) * sum_j gamma_j**2 equals 1 up to a
    correction that decays like 1/N.  In the bond sums of
    :func:`hschain.moments._bond_sums` it is exactly S2 / (3 S2 - 2 C), so
    the absolute deviation from 1 is the ratio of integers
    2 |S2 - C| / (3 S2 - 2 C), converted to float once.
    Raises ValidationError for m = 1, whose spectrum has zero width.
    """
    if spec.m == 1:
        raise ValidationError("the variance identity needs m >= 2; at m = 1 sigma2 is 0")
    _, square, cross, _ = _bond_sums(spec)
    return 2 * abs(square - cross) / (3 * square - 2 * cross)


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


def partition_function_at(density: DensityTable, q: complex) -> complex:
    """Evaluate Z(q) = sum of degeneracy * q**energy in floating point.

    Horner evaluation over the dense scaled-integer grid, from the top
    level down to energy zero; for tables with energy_scale D > 1 the
    principal branch of q**(1/D) is used.  Degeneracies above 2**53 lose
    precision in the float conversion.

    Raises
    ------
    ValidationError
        If the table has a negative level, which the grid from energy zero
        up cannot hold.
    """
    q = complex(q)
    w = q ** (1.0 / density.energy_scale) if density.energy_scale != 1 and q != 0 else q
    levels = density.levels().tolist()
    if levels and levels[0] < 0:
        raise ValidationError(f"Z(q) needs levels from energy zero up, but the table has "
                              f"{format_rational(Fraction(levels[0], density.energy_scale))}")
    grid = [0] * (levels[-1] + 1 if levels else 1)
    for e, d in zip(levels, density.degeneracies):
        grid[e] = d
    result = 0j
    for d in reversed(grid):
        result = result * w + d
    return result
