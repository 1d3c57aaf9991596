"""Dense spin-chain Hamiltonians as an independent check on the motif rules.

The three chains are defined by pairwise spin exchanges with strengths set
by the site geometry: inverse sin**2 on the uniform circle lattice,
inverse square distance at the Hermite zeros, inverse sinh**2 at half the
log of the Laguerre zeros.  Building the dense matrix, diagonalising it
with self-contained Jacobi rotations, and comparing the eigenvalue
multiset with the motif spectrum exercises a completely different code
path from the counting backends: floating point instead of exact
integers, site geometry instead of the dispersion sequence.

Every exchange keeps the number of spins of each colour, so
``build_hamiltonian`` builds H on any set of basis states that exchanges
keep, and the oracle calls it once per solved weight sector: one of those
that a permutation of the colours maps onto one another.  On the circle
lattice h_ij depends on (i - j) mod N only, so an HS sector splits further
into momentum blocks over the orbits of the rotation, taken from the
sector matrix; PF and FI sectors are solved whole.  The Jacobi sweeps
rotate disjoint pairs of indices together, one numpy update per round, for
a whole stack of equal-size blocks at once.

Only small chains are in scope: the gate predicts every block size from
the colour counts, and holds the blocks, the largest sector matrix, the
largest stack and the m**N spectra to the memory budget and the Jacobi
work of the solved blocks to ``ORACLE_CEILING``, while the site layout has
no cap.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import partial
from typing import NamedTuple

import numpy as np

from .chains import ChainSpec
from .density import density_dp
from .errors import ConvergenceError, ValidationError
from .table import _PIECE_LEVELS, ORACLE_CEILING, check_grid_budget

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


class SiteLayout(NamedTuple):
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


class DenseOperator(NamedTuple):
    """Real symmetric operator on basis states that exchanges keep."""

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


def _momentum_sizes(n: int, counts: tuple[int, ...]) -> list[int]:
    """Sizes of the nonempty momentum blocks p = 0, ..., n // 2 of the HS
    weight sector with `counts`, as :func:`_momentum_blocks` builds them,
    from the number of rotation orbits of each period; no state is listed.

    A state is fixed by the rotation T**d, d dividing n, when it is n // d
    copies of its first d spins, which needs every count divisible by n // d
    (Burnside); those of exact period d are the rest once the ones of each
    smaller period dividing d are taken away (Moebius), in orbits of d.  An
    orbit of period L carries momentum p when p L is a multiple of n, and
    the blocks of 0 < p < n/2 hold p and -p together, twice the orbits.
    """
    exact = {}  # states of exact period d, by the divisors d of n
    for d in (d for d in range(1, n + 1) if n % d == 0):
        repeat = n // d
        fixed = 0 if any(c % repeat for c in counts) else (
            math.factorial(d) // math.prod(math.factorial(c // repeat) for c in counts))
        exact[d] = fixed - sum(e for period, e in exact.items() if d % period == 0)
    sizes = (sum(e // d for d, e in exact.items() if p * d % n == 0) * (1 if 2 * p % n == 0 else 2)
             for p in range(n // 2 + 1))
    return [size for size in sizes if size]


def _check_oracle_cost(spec: ChainSpec) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """Refuse a chain whose m**N eigenvalues, motif values and temporaries,
    with the report written from them, pass the memory budget; only then
    list (and return) the solved sectors with the sizes of their blocks
    (an HS sector's momentum blocks, every other sector whole), and refuse
    a chain whose solved blocks, with the largest sector matrix and a copy
    of it or with Jacobi's working copies of the largest stack of
    equal-size blocks (3.5 stacks measured, 5 counted), join them over the
    budget, or whose sum of size**3 over the solved blocks passes
    ``ORACLE_CEILING``.

    The report's JSON is written from the spectra themselves, one piece of
    ``_PIECE_LEVELS`` values at a time: the slice's Python floats, a pointer
    and a 24-byte object per value, and a text of up to 32 characters a
    value (a 24-character float and the item separator), held twice, the
    encoder's text and its copy without brackets.  For ``hschain oracle``
    at HS N=5 m=16 (1,048,576 states) the tracemalloc peak was 32 bytes a
    state, inside the spectra's 40.
    """
    piece = (2 * 32 + 8 + 24) * _PIECE_LEVELS
    # m**N is written as a power: past 4,300 digits Python refuses to print it
    text = (f"dense oracle of m**N = {spec.m}**{spec.n_spins} states needs 5 x 8 x m**N bytes of "
            f"spectra and {piece} bytes to write them as JSON")
    spectra_and_report = 5 * 8 * spec.n_states + piece
    check_grid_budget(text, spectra_and_report)
    sectors = [(counts, copies,
                _momentum_sizes(spec.n_spins, counts) if spec.family == "HS" else [dim])
               for counts, copies, dim in _solved_sectors(spec)]
    largest = max(sum(sizes) for _, _, sizes in sectors)
    blocks = Counter(size for _, _, sizes in sectors for size in sizes)
    stack = max(count * (size + size % 2) ** 2 for size, count in blocks.items())
    held = sum(count * size * size for size, count in blocks.items())
    work = sum(count * size ** 3 for size, count in blocks.items())
    check_grid_budget(f"{text} plus 8 x {held} for the solved blocks and the larger of "
                      f"2 x 8 x {largest}**2 for the largest sector and 5 x 8 x {stack} for the "
                      f"largest stack of blocks, and {work} units of Jacobi work, the sum of "
                      "size**3 over the solved blocks",
                      spectra_and_report + 8 * held + max(16 * largest * largest, 40 * stack),
                      work, ORACLE_CEILING)
    return sectors


def _sector_states(spec: ChainSpec, counts: tuple[int, ...]) -> np.ndarray:
    """The ascending basis indices with counts[c] spins of colour c, spelled
    out from the first spin."""
    states, left = np.zeros(1, dtype=np.int64), np.array([counts])
    for _ in range(spec.n_spins):
        rows, colours = np.nonzero(left)
        states, left = states[rows] * spec.m + colours, left[rows]
        left[np.arange(rows.size), colours] -= 1
    return states


def _momentum_blocks(spec: ChainSpec, states: np.ndarray, h: np.ndarray) -> list[np.ndarray]:
    """The exactly symmetric momentum blocks p = 0, ..., N // 2 of an HS
    sector matrix `h` on ascending `states`, empty ones left out.

    The rotation T moves every spin one site on, and h_ij depends on
    (i - j) mod N only, so T commutes with H.  An orbit of T is kept by its
    least state r, of period L, and carries momentum p when p L is a
    multiple of N; between such orbits H_p[a, b] = sqrt(L_a L_b) / N
    sum_j exp(2 pi i p j / N) H[r_a, T**j r_b], a cosine and a sine sum
    over j of the representatives' rows (numpy's FFT module would cost a
    fresh process 0.6 MB more to load).  Each block is made exactly
    Hermitian by averaging it with its transpose, its real part symmetric
    and its imaginary part antisymmetric.  p = 0 and p = N/2 are real; for
    0 < p < N/2 the real block [[Re, -Im], [Im, Re]] has each eigenvalue of
    H_p twice, the spectra of p and -p.
    """
    n, m = spec.n_spins, spec.m
    high = m ** (n - 1)
    turns = [states]  # T**j of every state, j = 0, ..., N - 1
    for _ in range(n - 1):
        turns.append(turns[-1] % high * m + turns[-1] // high)
    turns = np.stack(turns)
    reps = np.flatnonzero(turns.min(axis=0) == states)
    # T**N is the identity, so every orbit returns by j = N
    period = np.argmax(np.vstack([turns[1:, reps], states[reps]]) == states[reps], axis=0) + 1
    rows = h[reps][:, np.searchsorted(states, turns[:, reps])]  # H[r_a, T**j r_b] at [a, j, b]
    angles = np.outer(np.arange(n // 2 + 1), np.arange(n)) % n * (2 * math.pi / n)
    cosine = np.einsum("ajb,pj->abp", rows, np.cos(angles))
    sine = np.einsum("ajb,pj->abp", rows, np.sin(angles))
    weight = np.sqrt(period / n)
    blocks = []
    for p in range(n // 2 + 1):
        keep = np.flatnonzero(p * period % n == 0)
        if not keep.size:
            continue
        scale = np.outer(weight[keep], weight[keep])
        real = cosine[keep][:, keep, p] * scale
        real = (real + real.T) / 2
        if 2 * p % n == 0:
            blocks.append(real)
            continue
        imag = sine[keep][:, keep, p] * scale
        imag = (imag - imag.T) / 2
        blocks.append(np.block([[real, -imag], [imag, real]]))
    return blocks


def build_hamiltonian(spec: ChainSpec, states: np.ndarray, coef: np.ndarray) -> DenseOperator:
    """Sum of h_ij (1 - epsilon * exchange of spins i, j), h_ij from `coef`,
    over ascending basis indices `states` that no exchange leaves (a weight
    sector, or all m**N): each pair adds one diagonal shift and one permutation
    of base-m digits, placed by the positions of the exchanged states.  Exactly
    symmetric; refused where H with a copy of it passes the memory budget."""
    n, m, size = spec.n_spins, spec.m, states.size
    check_grid_budget(f"dense H of {size} states needs 2 x 8 x {size}**2 bytes", 16 * size * size)
    weight = m ** np.arange(n - 1, -1, -1)
    digits = (states[:, None] // weight[None, :]) % m
    rows = np.arange(size)
    h = np.zeros((size, size))
    for i in range(n - 1):
        for j in range(i + 1, n):
            swapped = states + (digits[:, j] - digits[:, i]) * (weight[i] - weight[j])
            cols = np.searchsorted(states, swapped)
            if not np.array_equal(states.take(cols, mode="clip"), swapped):
                raise ValidationError(f"exchanging spins {i} and {j} leaves the given states")
            h[rows, rows] += coef[i, j]
            h[rows, cols] -= spec.epsilon * coef[i, j]
    return DenseOperator(matrix=h)


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
    """Eigenvalues of a real symmetric matrix, or of each matrix of a
    stack (B, n, n) of them, by parallel-order Jacobi.

    Deliberately not a LAPACK call: the point of this module is an
    independent route.  A sweep is the size - 1 rounds of a round-robin
    over the indices (Brent & Luk's ordering; odd sizes gain one decoupled
    zero row, whose eigenvalue is dropped).  Each round rotates its size/2
    disjoint pairs (i, half + i) of every matrix of the stack with one row
    update and one column update, then moves the stack into the next
    round's order.  Sweeps continue until the off-diagonal Frobenius norm
    of the whole stack falls below ``JACOBI_OFF_TOL``, for at most
    ``JACOBI_MAX_SWEEPS`` sweeps.  Ascending, one row per matrix of a stack.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ValidationError("jacobi_eigenvalues needs a square matrix or a stack of them")
    if not np.isfinite(matrix).all():
        raise ValidationError("jacobi_eigenvalues needs finite entries")
    if not np.array_equal(matrix, matrix.swapaxes(-1, -2)):
        raise ValidationError("jacobi_eigenvalues needs an exactly symmetric matrix")
    stack = matrix if matrix.ndim == 3 else matrix[None]
    count, dim = stack.shape[:2]
    if dim <= 1:
        values = stack.diagonal(axis1=1, axis2=2).copy()
    else:
        # one padded working copy, a[row, member, column] so that a row of
        # every member moves as one; a single matrix keeps its two axes
        size = dim + dim % 2
        a = np.zeros((size, count, size) if count > 1 else (size, size))
        a[:dim, ..., :dim] = stack.transpose(1, 0, 2) if count > 1 else stack[0]
        values = _sweep(a, dim).reshape(count, dim)
    return values if matrix.ndim == 3 else values[0]


def _sweep(a: np.ndarray, dim: int) -> np.ndarray:
    """Run the sweeps of :func:`jacobi_eigenvalues` on its working copy
    `a`, a[row, ..., column]; the ascending eigenvalues of the first
    `dim` indices, (member, value)."""
    size = a.shape[0]
    half = size // 2
    spare = np.empty_like(a)
    place = np.arange(size)  # original index at each position
    top, bottom = a[:half], a[half:]
    left, right = a[..., :half], a[..., half:]
    diagonal = a.diagonal(axis1=0, axis2=-1)  # read-only views, (member, index)
    app, aqq = diagonal[..., :half], diagonal[..., half:]
    apq = a[:half, ..., half:].diagonal(axis1=0, axis2=-1)

    def off_norm() -> float:
        # summed from the off-diagonal entries themselves; subtracting the
        # diagonal from the total Frobenius norm would cancel catastrophically
        gap = a.copy()
        gap[place, ..., place] = 0.0
        gap *= gap
        return math.sqrt(float(gap.sum()))

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
                          out=np.zeros(apq.shape), where=apq != 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            c_rows, s_rows = c.T[..., None], s.T[..., None]
            upper = top.copy()
            top *= c_rows
            top -= s_rows * bottom
            bottom *= c_rows
            bottom += s_rows * upper
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
    return np.sort(diagonal[..., place < dim], axis=-1)


def _sector_eigenvalues(spec: ChainSpec) -> np.ndarray:
    """Ascending eigenvalues of the dense Hamiltonian, each solved sector's
    spectrum repeated by its `copies`.  Every solved sector is built, split
    into its blocks, and the blocks of each size are solved in one stack.
    The whole matrix, block-diagonal in the blocks' bases, is held to
    ``JACOBI_OFF_TOL``: each block is scaled by a power of two k with k**2
    at least the number of blocks, copies included, which scales its sweeps
    exactly, so each stack ends at an off-diagonal norm below
    ``JACOBI_OFF_TOL / k`` in the blocks' units."""
    sectors = _check_oracle_cost(spec)
    coef = exchange_coefficients(spec)
    k = 2.0 ** (((sum(copies * len(sizes) for _, copies, sizes in sectors) - 1).bit_length()
                 + 1) // 2)
    by_size = {}  # block size: [(sector index, scaled block)]
    for index, (counts, _, _) in enumerate(sectors):
        states = _sector_states(spec, counts)
        h = build_hamiltonian(spec, states, coef).matrix
        for block in _momentum_blocks(spec, states, h) if spec.family == "HS" else [h]:
            by_size.setdefault(block.shape[0], []).append((index, k * block))
        del h  # before the next sector's is built
    spectra = [[] for _ in sectors]
    for size in list(by_size):
        indices, blocks = zip(*by_size.pop(size))
        stack = np.stack(blocks)
        del blocks
        for index, row in zip(indices, jacobi_eigenvalues(stack) / k):
            spectra[index].append(row)
    return np.sort(np.concatenate([np.tile(np.concatenate(rows), copies)
                                   for rows, (_, copies, _) in zip(spectra, sectors)]))


def _multiplicity_pattern(values: np.ndarray, tol: float) -> tuple[int, ...]:
    """Cluster ascending values whose gaps stay below tol; return sizes."""
    starts = np.flatnonzero(np.diff(values) > tol) + 1
    return tuple(np.diff(starts, prepend=0, append=len(values)).tolist())


def _json_floats(values: np.ndarray, pad: str):
    """Yield, in pieces, the text ``json.dumps(indent=2)`` writes for the
    float list of `values` `pad` deep, ``_PIECE_LEVELS`` values a piece,
    each encoded from a slice of the array."""
    if not values.size:
        yield "[]"
        return
    separators = (f",\n{pad}  ", ": ")
    lead = f"[\n{pad}  "
    for start in range(0, values.size, _PIECE_LEVELS):
        yield lead
        yield json.dumps(values[start:start + _PIECE_LEVELS].tolist(), separators=separators)[1:-1]
        lead = separators[0]
    yield f"\n{pad}]"


class OracleReport(NamedTuple):
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
        """The report's JSON payload.  Each spectrum is a function of its
        indent, as :meth:`DensityTable.to_json_dict` gives its levels, so
        no list of its floats is built."""
        return {
            "spec": self.spec.to_json_dict(),
            "eigenvalues": partial(_json_floats, self.eigenvalues),
            "motif_values": partial(_json_floats, self.motif_values),
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
