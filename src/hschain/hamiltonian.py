"""Dense spin-chain Hamiltonians as an independent check on the motif rules.

The three chains are defined by pairwise spin exchanges with strengths set
by the site geometry: inverse sin**2 on the uniform circle lattice,
inverse square distance at the Hermite zeros, inverse sinh**2 at half the
log of the Laguerre zeros.  Building the dense matrix, diagonalising it
with self-contained Jacobi rotations, and comparing the eigenvalue
multiset with the motif spectrum exercises a completely different code
path from the counting backends: floating point instead of exact
integers, site geometry instead of the dispersion sequence.

Every exchange keeps the number of spins of each colour, so the oracle
builds one weight sector's block at a time, and only one of the sectors
that a permutation of the colours maps onto one another.  The Jacobi
sweeps rotate disjoint pairs of indices together, one numpy update per round.

Only small chains are in scope: the gate holds the largest block and the
m**N spectra to the memory budget and the Jacobi work of the solved
sectors to ``ORACLE_CEILING``, while the site layout has no cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainSpec
from .density import density_dp
from .errors import ConvergenceError, ValidationError
from .table import ORACLE_CEILING, check_grid_budget

ZERO_RESIDUAL_TOL = 1e-10
JACOBI_OFF_TOL = 1e-10
JACOBI_MAX_SWEEPS = 60
CLUSTER_TOL = 1e-6


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


def chain_sites(spec: ChainSpec) -> SiteLayout:
    """Site coordinates for the chain geometry of `spec`.

    Uniform angles k*pi/N for the trigonometric chain; Hermite zeros for
    the rational one; half the log of the generalized-Laguerre zeros for
    the hyperbolic one.  Zeros come from the Jacobi-matrix eigenvalue
    method with one Newton polish; a residual above the tolerance is an
    error rather than a warning.
    """
    n = spec.n_spins
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


def exchange_coefficients(spec: ChainSpec) -> np.ndarray:
    """Strictly-upper-triangular matrix of pair strengths h_ij."""
    xi = chain_sites(spec).xi
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


def _solved_sectors(spec: ChainSpec) -> list[tuple[tuple[int, ...], int, int]]:
    """(counts, copies, dim) of each solved weight sector, the states with
    counts[c] spins of colour c for non-increasing counts, one per partition
    of N into at most m parts; a colour permutation commutes with every
    exchange, so the `copies` sectors that permute onto it share its spectrum."""

    def partitions(rest: int, largest: int, room: int):
        if rest == 0:
            yield ()
        for first in range(min(rest, largest) if room else 0, 0, -1):
            yield from ((first, *tail) for tail in partitions(rest - first, first, room - 1))

    return [(p + (0,) * (spec.m - len(p)),
             math.perm(spec.m, len(p)) // math.prod(math.factorial(p.count(v)) for v in set(p)),
             math.factorial(spec.n_spins) // math.prod(map(math.factorial, p)))
            for p in partitions(spec.n_spins, spec.n_spins, spec.m)]


def _check_oracle_cost(spec: ChainSpec) -> list[tuple[tuple[int, ...], int, int]]:
    """Refuse a chain whose m**N eigenvalues, motif values and temporaries,
    with the report written from them, pass the memory budget; only then
    list (and return) the solved sectors, and refuse a chain whose largest
    block with Jacobi's working copies of it (peaks of 5.5 blocks are
    measured) joins them over the budget, or whose sum of dim**3 passes
    ``ORACLE_CEILING``.

    The report's JSON holds both spectra as lists of Python floats, a
    pointer and a 32-byte object per value, and writes one list at a time
    as a text of up to 32 characters a value (a 24-character float and the
    item separator), held twice: the encoder's text and its copy without
    brackets.  For ``hschain oracle`` at HS N=5 m=16 (1,048,576 states) the
    max RSS rose 164 MiB above the interpreter's 30 MiB, against 184 MiB
    predicted.
    """
    states = spec.n_states
    # m**N is written as a power: past 4,300 digits Python refuses to print it
    text = (f"dense oracle of m**N = {spec.m}**{spec.n_spins} states needs 5 x 8 x m**N bytes of "
            "spectra and (2 x 40 + 2 x 32) x m**N bytes to write them as JSON")
    spectra_and_report = (5 * 8 + 2 * 40 + 2 * 32) * states
    check_grid_budget(text, spectra_and_report)
    sectors = _solved_sectors(spec)
    size = max(dim for _, _, dim in sectors) + 1  # an odd block runs padded
    work = sum(dim ** 3 for _, _, dim in sectors)
    check_grid_budget(f"{text} plus 6 x 8 x {size}**2 for its largest block, and {work} units of "
                      "Jacobi work, the sum of dim**3 over the solved sectors",
                      spectra_and_report + 48 * size * size, work, ORACLE_CEILING)
    return sectors


def _block(spec: ChainSpec, states: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Sum of h_ij (1 - epsilon * exchange of spins i, j) over ascending
    basis indices `states` that no exchange leaves: each pair adds one
    diagonal shift and one permutation of base-m digits, placed by the
    positions of the exchanged states.  Exactly symmetric by construction."""
    n, m = spec.n_spins, spec.m
    weight = m ** np.arange(n - 1, -1, -1)
    digits = (states[:, None] // weight[None, :]) % m
    rows = np.arange(states.size)
    h = np.zeros((states.size, states.size))
    for i in range(n - 1):
        for j in range(i + 1, n):
            swapped = states + (digits[:, j] - digits[:, i]) * (weight[i] - weight[j])
            cols = np.searchsorted(states, swapped)
            if not np.array_equal(states.take(cols, mode="clip"), swapped):
                raise ValidationError(f"exchanging spins {i} and {j} leaves the given states")
            h[rows, rows] += coef[i, j]
            h[rows, cols] -= spec.epsilon * coef[i, j]
    return h


def build_hamiltonian(spec: ChainSpec) -> DenseOperator:
    """Dense Hamiltonian on the whole m**N basis, refused wherever the
    oracle is and wherever H with a copy of it passes the memory budget."""
    _check_oracle_cost(spec)
    dim = spec.n_states
    check_grid_budget(f"dense H of dim m**N = {dim} needs 2 x 8 x {dim}**2 bytes", 16 * dim * dim)
    return DenseOperator(matrix=_block(spec, np.arange(dim), exchange_coefficients(spec)))


def _advance(src: np.ndarray, dst: np.ndarray) -> None:
    """Copy the rows of `src` into `dst` in the next round's order.

    Position 0 stays; every other index moves one place along the circle
    1, ..., half - 1, size - 1, ..., half, so that position i meets
    position half + i in each round and every two indices meet once in
    size - 1 rounds.
    """
    half = src.shape[0] // 2
    dst[0] = src[0]
    dst[1] = src[half]
    dst[2:half] = src[1:half - 1]
    dst[half:-1] = src[half + 1:]
    dst[-1] = src[half - 1]


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by parallel-order Jacobi.

    Deliberately not a LAPACK call: the point of this module is an
    independent route.  A sweep is the size - 1 rounds of a round-robin
    over the indices (Brent & Luk's ordering; odd sizes gain one decoupled
    zero row, whose eigenvalue is dropped).  Each round rotates its size/2
    disjoint pairs (i, half + i) with one row update and one column
    update, then moves the matrix into the next round's order.  Sweeps
    continue until the off-diagonal Frobenius norm falls below
    ``JACOBI_OFF_TOL``, for at most ``JACOBI_MAX_SWEEPS`` sweeps.
    Ascending.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("jacobi_eigenvalues needs a square matrix")
    if not np.isfinite(a).all():
        raise ValidationError("jacobi_eigenvalues needs finite entries")
    if not np.array_equal(a, a.T):
        raise ValidationError("jacobi_eigenvalues needs an exactly symmetric matrix")
    dim = a.shape[0]
    if dim <= 1:
        return a.diagonal().copy()
    size = dim + dim % 2
    half = size // 2
    a = np.pad(a, (0, size - dim))
    spare = np.empty_like(a)
    place = np.arange(size)  # original index at each position
    top, bottom = a[:half], a[half:]
    left, right = a[:, :half], a[:, half:]
    flat = a.reshape(-1)
    app, aqq = flat[: half * (size + 1): size + 1], flat[half * (size + 1):: size + 1]
    apq = flat[half: half * size: size + 1]

    def off_norm() -> float:
        # summed from the off-diagonal entries themselves; subtracting the
        # diagonal from the total Frobenius norm would cancel catastrophically
        gap = a - np.diag(a.diagonal())
        return math.sqrt(float((gap * gap).sum()))

    for _ in range(JACOBI_MAX_SWEEPS):
        off = off_norm()
        if off < JACOBI_OFF_TOL:
            break
        for _ in range(size - 1):
            # t = tan of the angle that zeroes a_pq, written without the
            # quotient (a_qq - a_pp) / (2 a_pq), which overflows for tiny a_pq
            half_gap = 0.5 * (aqq - app)
            t = np.divide(apq * np.copysign(1.0, half_gap),
                          np.abs(half_gap) + np.hypot(half_gap, apq),
                          out=np.zeros(half), where=apq != 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            upper = top.copy()
            top *= c[:, None]
            top -= s[:, None] * bottom
            bottom *= c[:, None]
            bottom += s[:, None] * upper
            upper = left.copy()
            left *= c
            left -= right * s
            right *= c
            right += upper * s
            if half > 1:  # a 2 x 2 matrix has a single round
                _advance(a, spare)
                _advance(spare.T, a.T)
                _advance(place.copy(), place)
    else:
        off = off_norm()
    if not off < JACOBI_OFF_TOL:
        raise ConvergenceError(f"Jacobi sweeps exhausted with off-diagonal norm {off:.3e}")
    return np.sort(a.diagonal()[place < dim])


def _sector_eigenvalues(spec: ChainSpec) -> np.ndarray:
    """Ascending eigenvalues of the dense Hamiltonian, each solved sector's
    spectrum repeated by its `copies`.  The whole block-diagonal matrix is
    held to ``JACOBI_OFF_TOL``: each solved block is scaled by a power of two
    k with k**2 at least the number of sectors, which scales its sweeps
    exactly, so they end at an off-diagonal norm below ``JACOBI_OFF_TOL / k``
    in the block's units."""
    sectors = _check_oracle_cost(spec)
    coef = exchange_coefficients(spec)
    k = 2.0 ** (((sum(copies for _, copies, _ in sectors) - 1).bit_length() + 1) // 2)
    spectra = []
    for counts, copies, _ in sectors:
        # the sector's states in ascending order, spelled out from the first spin
        states, left = np.zeros(1, dtype=np.int64), np.array([counts])
        for _ in range(spec.n_spins):
            rows, colours = np.nonzero(left)
            states, left = states[rows] * spec.m + colours, left[rows]
            left[np.arange(rows.size), colours] -= 1
        spectra.append(np.tile(jacobi_eigenvalues(k * _block(spec, states, coef)) / k, copies))
    return np.sort(np.concatenate(spectra))


def _multiplicity_pattern(values: np.ndarray, tol: float) -> tuple[int, ...]:
    """Cluster ascending values whose gaps stay below tol; return sizes."""
    starts = np.flatnonzero(np.diff(values) > tol) + 1
    return tuple(np.diff(starts, prepend=0, append=len(values)).tolist())


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
            "eigenvalues": self.eigenvalues.tolist(),
            "motif_values": self.motif_values.tolist(),
            "direct_deviation": self.direct_deviation,
            "affine_scale": self.affine_scale,
            "affine_offset": self.affine_offset,
            "affine_deviation": self.affine_deviation,
            "eigen_multiplicities": list(self.eigen_multiplicities),
            "motif_multiplicities": list(self.motif_multiplicities),
            "multiplicities_match": self.multiplicities_match,
        }


def oracle_compare(spec: ChainSpec) -> OracleReport:
    """Diagonalize the dense Hamiltonian, one weight sector at a time, and
    line its spectrum up against the motif energies.

    Reports the raw sorted-multiset deviation and the deviation after the
    affine map that matches mean and variance.  The affine pass is the
    robust contract (an overall scale or shift between the two routes
    would not invalidate the counting); the direct number documents the
    normalization actually observed.  Multiplicity patterns must agree
    exactly, clustered at ``CLUSTER_TOL`` times the spectral spread.
    """
    # the motif side first: its gate refuses chains (m = 1 at large N, say) that the oracle's
    # admits but whose exchange pairs cost N**2; its m**N values wait for the oracle's gate
    density = density_dp(spec)
    eig = _sector_eigenvalues(spec)
    motif_values = np.repeat(density.levels() / density.energy_scale, density.degeneracies)

    direct = float(np.abs(eig - motif_values).max())
    spread = float(motif_values.max() - motif_values.min())
    eig_std = float(eig.std())
    motif_std = float(motif_values.std())
    scale = motif_std / eig_std if eig_std > 0 else 1.0
    offset = float(motif_values.mean()) - scale * float(eig.mean())
    affine = float(np.abs(scale * eig + offset - motif_values).max())
    gap_tol = CLUSTER_TOL * max(1.0, spread)
    return OracleReport(
        spec=spec,
        eigenvalues=eig,
        motif_values=motif_values,
        direct_deviation=direct,
        affine_scale=scale,
        affine_offset=offset,
        affine_deviation=affine,
        eigen_multiplicities=_multiplicity_pattern(eig, gap_tol),
        motif_multiplicities=density.degeneracies,
    )
