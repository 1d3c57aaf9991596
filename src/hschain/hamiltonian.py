"""Dense spin-chain Hamiltonians as an independent check on the motif rules.

The three chains are defined by pairwise spin exchanges with strengths set
by the site geometry: inverse sin**2 on the uniform circle lattice,
inverse square distance at the Hermite zeros, inverse sinh**2 at half the
log of the Laguerre zeros.  Building the dense matrix, diagonalising it
with a self-contained Householder reduction and Sturm multisection, and
comparing the eigenvalue multiset with the motif spectrum exercises a
completely different code path from the counting backends: floating
point instead of exact integers, site geometry instead of the dispersion
sequence.

Every exchange keeps the number of spins of each colour, so
``build_hamiltonian`` builds H on any set of basis states that exchanges
keep, and the oracle calls it once per solved weight sector: one of those
that a permutation of the colours maps onto one another.  Each sector then
splits by one group of permutations that commute with H, described once by
``_sector_group`` (its characters, the states each element keeps, and where
each element takes the states): the rotations of the circle lattice for an
HS sector, whose h_ij depends on (i - j) mod N only, and the swaps of
colours with equal counts for a PF or FI sector.  ``_symmetry_blocks``
projects the sector matrix onto one block per character of either group.
The blocks of every solved sector then go to one solver call: each stack
of equal-size blocks is reduced to tridiagonal form by Householder
reflections, and one Sturm multisection, vectorised over every
eigenvalue of every block, brackets them all at once (Barth, Martin and
Wilkinson, Numer. Math. 9 (1967) 386).

Only small chains are in scope: the gate predicts every block size from
the group's characters and the states each element keeps, both taken from
the colour counts alone, and holds the blocks, the largest sector matrix,
the solver's arrays, the build's pair arrays and the m**N spectra to the
memory budget, and the work of finding the sites, of building every solved
sector's exchange pairs and of solving its blocks to ``ORACLE_CEILING``.
``chain_sites`` called directly stays ungated, and ``build_hamiltonian``
gates only its matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from .chains import ChainSpec
from .density import density_dp
from .errors import ConvergenceError, ValidationError
from .table import _CHUNK_BYTES, _PIECE_LEVELS, ORACLE_CEILING, check_grid_budget

ZERO_RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-6
# The parts each Sturm step cuts a bracket into, and the steps the gate
# counts: a bracket starts about twice the call's largest Gershgorin bound
# wide and stops at 2 eps times it, 2**52 narrower, 3 bits a step.
_SECTIONS = 8
_STURM_STEPS = math.ceil(52 / math.log2(_SECTIONS))


def _orthopoly_zeros(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, float]:
    """Zeros of the degree-n orthogonal polynomial with the given Jacobi
    recurrence coefficients, plus the worst recurrence residual.

    Eigenvalues of the symmetric tridiagonal Jacobi matrix give the zeros,
    found by the oracle's own Sturm multisection, so the oracle makes no
    LAPACK call; one Newton step on the orthonormal three-term recurrence
    then polishes them.  The residual is the Newton correction length |p/p'| at the
    refined zeros, i.e. the remaining root error in coordinate units; the
    raw polynomial value would not be scale-free.
    """
    n = diag.size
    # the couplings are positive, so the matrix is one run and its zeros ascend
    x = _multisection(diag, np.append(0.0, offdiag) ** 2)

    def recurrence(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_prev = np.zeros_like(points)
        p = np.ones_like(points)
        d_prev = np.zeros_like(points)
        d = np.zeros_like(points)
        for k in range(n):
            scale = offdiag[k] if k < n - 1 else 1.0
            p_next = ((points - diag[k]) * p - (offdiag[k - 1] if k else 0.0) * p_prev) / scale
            d_next = (p + (points - diag[k]) * d - (offdiag[k - 1] if k else 0.0) * d_prev) / scale
            # one power of two per point keeps them in range and p/p' exact
            shift = -np.frexp(np.maximum(np.abs(p_next), np.abs(d_next)))[1]
            p_prev, p, d_prev, d = (np.ldexp(a, shift) for a in (p, p_next, d, d_next))
        return p, d

    value, slope = recurrence(x)
    safe = np.where(slope == 0.0, 1.0, slope)
    x = x - value / safe
    value, slope = recurrence(x)
    safe = np.where(slope == 0.0, 1.0, slope)
    return x, float(np.abs(value / safe).max())


def chain_sites(spec: ChainSpec) -> np.ndarray:
    """Ascending site coordinates for the chain geometry of `spec`.

    Uniform angles k*pi/N for the trigonometric chain; Hermite zeros for
    the rational one; half the log of the generalized-Laguerre zeros for
    the hyperbolic one.  Zeros come from the Jacobi-matrix eigenvalue
    method with one Newton polish; a residual above ``ZERO_RESIDUAL_TOL``
    is an error rather than a warning.
    """
    n = spec.n_spins
    if spec.family == "HS":
        return np.arange(1, n + 1) * (math.pi / n)
    if spec.family == "PF":
        diag = np.zeros(n)
        offdiag = np.sqrt(np.arange(1, n) / 2.0)
    else:
        beta = float(spec.alpha) - 1.0
        k = np.arange(n, dtype=float)
        diag = 2.0 * k + beta + 1.0
        offdiag = np.sqrt(np.arange(1, n) * (np.arange(1, n) + beta))
    zeros, residual = _orthopoly_zeros(diag, offdiag)
    if not residual <= ZERO_RESIDUAL_TOL:  # a NaN residual is refused too
        raise ConvergenceError(
            f"orthogonal-polynomial zeros did not converge: residual {residual:.3e}"
        )
    if spec.family == "FI":
        if zeros.min() <= 0.0:
            raise ValidationError("Laguerre zeros must be positive")
        zeros = 0.5 * np.log(zeros)
    return zeros


class DenseOperator(NamedTuple):
    """Real symmetric operator on basis states that exchanges keep."""

    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _pair_strengths(spec: ChainSpec, gap: np.ndarray) -> np.ndarray:
    """The exchange strengths h_ij of pairs whose sites are `gap` =
    xi_i - xi_j apart: 1 / (2 sin**2) on the circle lattice, 1 / gap**2 at
    the Hermite zeros and 1 / (2 sinh**2) at the Laguerre sites."""
    if spec.family == "HS":
        return 0.5 / np.sin(gap) ** 2
    if spec.family == "PF":
        return 1.0 / gap ** 2
    return 0.5 / np.sinh(gap) ** 2


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


def _colour_swaps(counts: tuple[int, ...]) -> list[tuple[int, int]]:
    """Disjoint pairs (a, b), a < b, of colours with equal nonzero counts:
    the colours of each count are paired in order, one left over when
    their number is odd."""
    swaps, waiting = [], {}
    for colour, count in enumerate(counts):
        if count:
            if count in waiting:
                swaps.append((waiting.pop(count), colour))
            else:
                waiting[count] = colour
    return swaps


class _Group(NamedTuple):
    """The symmetry group of one weight sector, as :func:`_symmetry_blocks`
    projects H onto it and :func:`_check_oracle_cost` counts its blocks."""

    characters: np.ndarray  # chi(g) at [character, element], the identity element first
    real: np.ndarray  # which characters are real
    fixed: list  # the sector states each element keeps, from the counts alone
    places: Callable  # ascending states -> the position of g state at [element, state]


def _sector_group(spec: ChainSpec, counts: tuple[int, ...], dim: int) -> _Group:
    """The group that splits the weight sector with `counts` (of `dim`
    states) into blocks, each element a permutation of the sector that
    commutes with every exchange.

    On the circle lattice h_ij depends on (i - j) mod N only, so an HS
    sector has the N rotations T**j, which move every spin j sites on, with
    the momentum characters exp(2 pi i p j / N), p = 0, ..., N // 2 (p and
    -p give one real block).  T**j keeps the states that are N / g copies
    of their first g = gcd(j, N) spins, which needs N / g to divide every
    count: multinomial(g; counts g / N) of them.  Any other sector has the
    2**t products of the t colour swaps of :func:`_colour_swaps`, relabellings
    that keep the sector, with the characters (-1)**(bits shared by s and g),
    the high bit of g the latest swap; only the identity keeps a state,
    since any other product moves a colour that the state holds.  Each swap
    moves every state by its own shift of base-m digits, read from one
    digit matrix of the sector and placed by one searchsorted; the products
    are composed from those positions.
    """
    n, m = spec.n_spins, spec.m
    if spec.family == "HS":
        high = m ** (n - 1)

        def rotations(states: np.ndarray) -> np.ndarray:
            places, turn = np.empty((n, states.size), dtype=np.intp), states
            for j in range(n):
                places[j] = np.searchsorted(states, turn)
                turn = turn % high * m + turn // high
            return places

        fixed = []
        for g in (math.gcd(j, n) for j in range(n)):
            fixed.append(0 if any(c * g % n for c in counts) else
                         math.factorial(g) // math.prod(math.factorial(c * g // n) for c in counts))
        momenta = np.arange(n // 2 + 1)
        angles = momenta[:, None] * np.arange(n) % n * (2 * math.pi / n)
        characters = np.empty(angles.shape, dtype=complex)
        characters.real, characters.imag = np.cos(angles), np.sin(angles)
        return _Group(characters, 2 * momenta % n == 0, fixed, rotations)
    swaps = _colour_swaps(counts)
    order = range(1 << len(swaps))
    signs = np.array([[(-1) ** (s & g).bit_count() for g in order] for s in order], dtype=float)
    weight = m ** np.arange(n - 1, -1, -1)

    def products(states: np.ndarray) -> np.ndarray:
        places, digits = [np.arange(states.size)], states[:, None] // weight % m
        for a, b in swaps:
            shift = ((digits == a) * weight - (digits == b) * weight).sum(axis=1) * (b - a)
            turn = np.searchsorted(states, states + shift)
            places += [turn[place] for place in places]
        return np.stack(places)

    return _Group(signs, np.ones(len(signs), dtype=bool), [dim] + [0] * (len(signs) - 1), products)


def _check_oracle_cost(spec: ChainSpec) -> list[tuple[tuple[int, ...], int, list[int], _Group]]:
    """Refuse a chain whose m**N eigenvalues, motif values and temporaries,
    with the report written from them, pass the memory budget; only then
    list (and return) the solved sectors with the sizes of their blocks and
    their groups, and refuse a chain whose solved blocks, with the largest
    sector matrix and a copy of it or with the solver's own arrays, and with
    the build's arrays, join them over the budget, or whose site, build and
    solver work passes ``ORACLE_CEILING``.

    A block of :func:`_symmetry_blocks` holds the orbits on whose stabiliser
    its character chi is trivial, (1 / |G|) sum_g conj(chi(g)) Fix(g) of them
    (Burnside's count, by character), with Fix(g) the states that g keeps;
    a complex chi holds them twice.  No state is listed.

    The solver (:func:`jacobi_eigenvalues`) holds a copy of the largest
    stack of equal-size blocks and one outer product of its trailing
    blocks, 128 bytes a solved eigenvalue for its lanes and their results,
    and one piece of lanes, 4 x ``_CHUNK_BYTES``.  Its work is size**3 a
    block for the Householder reduction and 2 x ``_STURM_STEPS`` x
    (``_SECTIONS`` - 1) x size**2 for the multisection: a Sturm evaluation
    (one row of one lane at one point) took about twice a size**3 unit.

    :func:`build_hamiltonian` adds two terms a state for each exchange
    pair of a sector, in chunks of pairs with one ``np.add.at`` each, 50 to
    200 ns a pair and state (HS N=14 m=2, 6.1e7 units, built in 0.065 s;
    PF N=3000 m=1, 4.5 M pairs of one state, in 0.24 s): counted as 64
    units per pair and state.  Outside the sectors, :func:`chain_sites`
    finds the PF and FI sites by one multisection of an N-row Jacobi run,
    counted with the solver's term as 2 x ``_STURM_STEPS`` x (``_SECTIONS``
    - 1) x N**2 (the HS sites are closed form): at PF N=3000 m=1 it took
    4.8 of the oracle's 5.0 s.  The build holds the exchange pairs, two
    index arrays of 8 x N(N - 1) bytes in all that ``np.triu_indices``
    makes through an N**2 boolean mask (a tracemalloc peak of 8 x N(N - 1) + 1.01
    x N**2 bytes at N = 1000 and 3000), and the temporaries of one chunk of
    pairs, the sector's digits among them: up to 11.9 times the chunk's 8
    bytes a pair and state (PF N=30 m=2), which fill at most
    ``_CHUNK_BYTES``, counted as 16 times.  No coupling matrix is made: each
    chunk's strengths come from its site gaps.

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
    sectors = []
    for counts, copies, dim in _solved_sectors(spec):
        group = _sector_group(spec, counts, dim)
        # the sum is real, so only the characters' real parts enter it
        orbits = np.rint(np.einsum("sg,g->s", group.characters.real, group.fixed)
                         / len(group.fixed))
        sizes = [int(k) << (not r) for k, r in zip(orbits, group.real) if k]
        sectors.append((counts, copies, sizes, group))
    largest = max(sum(sizes) for _, _, sizes, _ in sectors)
    blocks = Counter(size for _, _, sizes, _ in sectors for size in sizes)
    solved = sum(count * size for size, count in blocks.items())
    stack = max(count * size * size for size, count in blocks.items())
    held = sum(count * size * size for size, count in blocks.items())
    n = spec.n_spins
    sturm = 2 * _STURM_STEPS * (_SECTIONS - 1)
    sites = 0 if spec.family == "HS" else sturm * n * n
    pairs = n * (n - 1) // 2
    work = sites + 64 * pairs * solved + sum(count * (size ** 3 + sturm * size * size)
                                             for size, count in blocks.items())
    solver = 16 * stack + 128 * solved + 4 * _CHUNK_BYTES
    chunk = min(_CHUNK_BYTES, 8 * pairs * largest)
    build = 8 * n * (n - 1) + n * n + 16 * chunk
    check_grid_budget(f"{text} plus {build} for the build (8 x {n} x {n - 1} for the exchange "
                      f"pairs, {n}**2 for their mask and 16 x {chunk} for one chunk of them), "
                      f"8 x {held} for the solved blocks and the larger of 2 x 8 x {largest}**2 "
                      f"for the largest sector and {solver} for the solver (2 x 8 x {stack} for "
                      f"the largest stack of blocks and its outer products, 128 x {solved} for "
                      f"its lanes and "
                      f"{4 * _CHUNK_BYTES} for one piece of them), and {work} units of work: "
                      f"{sites} to find the sites; to build, 64 a state for each of {pairs} "
                      f"exchange pairs over {solved} states; to solve, the sum over the solved "
                      f"blocks of size**3 and {sturm} x size**2",
                      spectra_and_report + build + 8 * held
                      + max(16 * largest * largest, solver),
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


def _symmetry_blocks(h: np.ndarray, places: np.ndarray, characters: np.ndarray,
                     real: np.ndarray) -> list[np.ndarray]:
    """The exactly symmetric blocks of a sector matrix `h`, one per
    character of a group G of permutations of the sector that commute with
    H, empty ones left out; `h` itself when G is trivial.

    `places` gives the position of g r for every element g and state r (the
    identity first), and `characters` chi(g) at [character, element].  An
    orbit is kept by its least state r_a, of L_a states, and enters the
    block of chi when chi is trivial on its stabiliser; between such orbits
    B_chi[a, b] = sqrt(L_a L_b) / |G| sum_g chi(g) H[r_a, g r_b], a real and
    an imaginary sum over g of the representatives' rows (numpy's FFT
    module would cost a fresh process 0.6 MB more to load).  Each block is
    made exactly Hermitian by averaging it with its transpose, its real part
    symmetric and its imaginary part antisymmetric; a complex chi gives the
    real block [[Re, -Im], [Im, Re]], which holds each eigenvalue of B_chi
    twice, the spectra of chi and of its conjugate.
    """
    if len(places) == 1:
        return [h]
    reps = np.flatnonzero(places.min(axis=0) == places[0])
    stabiliser = places[:, reps] == reps  # whether g keeps r_a, at [g, a]
    rows = h[reps][:, places[:, reps]]  # H[r_a, g r_b] at [a, g, b], a innermost
    # einsum's order of summation, and so the blocks' last bits, follows the
    # operands' strides; the characters are made contiguous for it
    sums = np.einsum("agb,sg->sab", rows, np.ascontiguousarray(characters.real))
    if not real.all():
        imaginary = np.einsum("agb,sg->sab", rows, np.ascontiguousarray(characters.imag))
    # sum_g chi(g) over the stabiliser is its order where chi is trivial on it, else 0
    order = stabiliser.sum(axis=0)
    kept = np.einsum("sg,ga->sa", characters.real, stabiliser) > order - 0.5
    weight = np.sqrt(1 / order)  # sqrt(L_a / |G|)
    blocks = []
    for s in range(len(characters)):
        keep = np.flatnonzero(kept[s])
        if not keep.size:
            continue
        scale = np.outer(weight[keep], weight[keep])
        block = sums[s][keep][:, keep] * scale
        block = (block + block.T) / 2
        if not real[s]:
            imag = imaginary[s][keep][:, keep] * scale
            imag = (imag - imag.T) / 2
            block = np.block([[block, -imag], [imag, block]])
        blocks.append(block)
    return blocks


def build_hamiltonian(spec: ChainSpec, states: np.ndarray, sites: np.ndarray) -> DenseOperator:
    """Sum of h_ij (1 - epsilon * exchange of spins i, j) over ascending
    basis indices `states` that no exchange leaves (a weight sector, or all
    m**N), h_ij the strength of the gap between the pair's `sites`
    (:func:`chain_sites`): each pair adds one diagonal shift and one
    permutation of base-m digits, placed by the positions of the exchanged
    states.  The pairs are taken in chunks whose exchanged states fill
    ``_CHUNK_BYTES``, each chunk's strengths made from its own site gaps,
    and one ``np.add.at`` adds a chunk's terms pair after pair, each pair's
    shift before its exchange, so every cell sums its terms in pair order.
    Exactly symmetric; refused where H with a copy of it passes the memory
    budget."""
    n, m, size = spec.n_spins, spec.m, states.size
    check_grid_budget(f"dense H of {size} states needs 2 x 8 x {size}**2 bytes", 16 * size * size)
    weight = m ** np.arange(n - 1, -1, -1)
    digits = states // weight[:, None] % m
    first, second = np.triu_indices(n, 1)
    rows, h = np.arange(size), np.zeros(size * size)
    step = max(1, _CHUNK_BYTES // (8 * max(size, 1)))
    for start in range(0, first.size, step):
        i, j = first[start:start + step], second[start:start + step]
        swapped = states + (digits[j] - digits[i]) * (weight[i] - weight[j])[:, None]
        cols = np.searchsorted(states, swapped)
        taken = states.take(cols, mode="clip")
        if not np.array_equal(taken, swapped):
            bad = np.flatnonzero(taken != swapped)[0] // size
            raise ValidationError(f"exchanging spins {i[bad]} and {j[bad]} leaves the given states")
        cells = np.stack([np.broadcast_to(rows * (size + 1), cols.shape), rows * size + cols], axis=1)
        strengths = _pair_strengths(spec, sites[i] - sites[j])
        terms = np.repeat(strengths[:, None] * [1.0, -spec.epsilon], size, axis=1)
        np.add.at(h, cells.ravel(), terms.ravel())
    return DenseOperator(matrix=h.reshape(size, size))


def jacobi_eigenvalues(matrix) -> np.ndarray | list[np.ndarray]:
    """Ascending eigenvalues of a real symmetric matrix, or of each square
    block of a list or tuple of them of any sizes (one array each).

    Deliberately not a LAPACK call: the point of this module is an
    independent route.  Each stack of equal-size blocks is reduced to
    tridiagonal form by Householder reflections (:func:`_tridiagonal`), and
    then one Sturm multisection (:func:`_multisection`) finds every
    eigenvalue of every block at once.  The name is that of the Jacobi
    solver that this route replaced: the oracle makes its one solve through
    this module attribute, which the benchmark's tracer wraps by name.
    """
    if not isinstance(matrix, (list, tuple)):
        return _eigenvalues([_checked(matrix)])
    blocks = [_checked(block) for block in matrix]
    values = _eigenvalues(blocks)
    ends = np.cumsum([len(block) for block in blocks]).tolist()
    return [values[end - len(block):end] for block, end in zip(blocks, ends)]


def _checked(matrix) -> np.ndarray:
    """`matrix` as a float array, square, finite and exactly symmetric, or
    refused."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("jacobi_eigenvalues needs a square matrix or a list of them")
    if not np.isfinite(matrix).all():
        raise ValidationError("jacobi_eigenvalues needs finite entries")
    if not np.array_equal(matrix, matrix.T):
        raise ValidationError("jacobi_eigenvalues needs an exactly symmetric matrix")
    return matrix


def _eigenvalues(blocks: list[np.ndarray]) -> np.ndarray:
    """The eigenvalues of checked symmetric blocks in one array, block after
    block, each block's ascending.  The blocks of each size are stacked
    and reduced together; their diagonals and squared couplings are laid
    end to end, each block starting a new run of the multisection.  Every
    entry is first scaled by one power of two, exactly, to below 1, so that
    no square or pivot overflows and no coupling of a tiny block squares
    to 0."""
    sizes = [len(block) for block in blocks]
    ends = np.cumsum(sizes, dtype=np.intp)
    diagonal, squares = np.empty(sum(sizes)), np.empty(sum(sizes))
    exponent = math.frexp(max((max(b.max(), -b.min()) for b in blocks if b.size), default=0.0))[1]
    by_size = {}
    for index, size in enumerate(sizes):
        by_size.setdefault(size, []).append(index)
    stacks = [(ends[members] - size)[:, None] + np.arange(size)
              for size, members in by_size.items()]
    for places, members in zip(stacks, by_size.values()):
        stack = np.stack([blocks[i] for i in members])
        diagonal[places], squares[places] = _tridiagonal(np.ldexp(stack, -exponent, out=stack))
    values = np.ldexp(_multisection(diagonal, squares), exponent)
    for places in stacks:
        values[places] = np.sort(values[places], axis=1)
    return values


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the stack `a` (B, n, n) of symmetric matrices to tridiagonal
    form, in place; its diagonals (B, n) and squared couplings (B, n), at
    [:, i] that of rows i - 1 and i ([:, 0] = 0).

    Step k reflects x, the entries of row k past the diagonal, onto their
    first place with v = x + sign(x_0) |x| e_1: with h = |v|**2 / 2,
    p = A v / h and w = p - (v.p / 2h) v, the trailing block A becomes
    A - v w^T - w v^T, one outer-product temporary.  The products are
    einsums, so no BLAS is loaded.  A zero x has nothing to reflect: h
    counts as 1 there, and v = 0 leaves A as it is.
    """
    count, n = a.shape[:2]
    squares = np.zeros((count, n))
    for k in range(n - 2):
        x = a[:, k, k + 1:]
        squares[:, k + 1] = np.einsum("bi,bi->b", x, x)
        norm = np.sqrt(squares[:, k + 1])
        v = x.copy()
        v[:, 0] += np.copysign(norm, x[:, 0])
        h = norm * (norm + np.abs(x[:, 0]))
        h[h == 0.0] = 1.0
        tail = a[:, k + 1:, k + 1:]
        w = np.einsum("bij,bj->bi", tail, v) / h[:, None]
        w -= (np.einsum("bi,bi->b", v, w) / (2 * h))[:, None] * v
        outer = np.einsum("bi,bj->bij", v, w)
        tail -= outer
        tail -= outer.swapaxes(1, 2)
        del outer  # before the next step's is made
    if n > 1:
        squares[:, n - 1] = a[:, n - 2, n - 1] ** 2
    return a.diagonal(axis1=1, axis2=2).copy(), squares


def _multisection(diagonal: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the symmetric tridiagonal matrices laid end to
    end in `diagonal`, with squared couplings `squares` (squares[i] that of
    rows i - 1 and i), a zero coupling starting a new run; ascending within
    each run, in the run's places.

    There is one lane per eigenvalue, the j-th of its run, holding a
    bracket: first the run's Gershgorin interval, widened by 2 n floor.
    Each step counts the eigenvalues below ``_SECTIONS - 1`` interior
    points of every bracket at once, the negative pivots
    q_i = d_i - x - e_i**2 / q_(i-1) (Sturm) counted from the sum of their
    signs, and keeps the one of the ``_SECTIONS`` equal parts where the
    count passes j.  A zero pivot divides to an infinity of its own sign,
    the limit of a pivot of +-tiny (a signed zero has the sign of its sign
    bit), and no coupling inside a run is zero, so no step divides 0 by 0.
    The lanes are sorted by run size, longest first, so that row i updates
    only the leading lanes whose run is longer than i, and are processed in
    pieces whose point arrays hold ``_CHUNK_BYTES`` each; a run of one row
    is its own eigenvalue and has no lane.  A bracket stops at the floor, 2
    eps times the call's largest Gershgorin bound plus the least normal
    float, which is at least the spacing of the floats at either of its
    ends: so it stops by the time its ends are adjacent floats, on an
    all-zero run too.  Each eigenvalue is its bracket's midpoint.
    """
    total = diagonal.size
    values = np.empty(total)
    if not total:
        return values
    starts = np.flatnonzero(squares == 0.0)
    sizes = np.diff(starts, append=total)
    radius = np.sqrt(squares)
    radius[:-1] += radius[1:]
    lower = np.minimum.reduceat(diagonal - radius, starts)
    upper = np.maximum.reduceat(diagonal + radius, starts)
    floor = 2 * np.finfo(float).eps * max(-lower.min(), upper.max()) + np.finfo(float).tiny
    lower -= 2 * sizes * floor
    upper += 2 * sizes * floor
    single = starts[sizes == 1]
    values[single] = diagonal[single]
    # a Python sort: numpy's stable argsort would fault in code pages no other call uses
    order = sorted(np.flatnonzero(sizes > 1).tolist(), key=sizes.item, reverse=True)
    lane_run = np.repeat(order, sizes[order])
    lane_rank = np.arange(lane_run.size) - np.repeat(np.cumsum(sizes[order]) - sizes[order],
                                                     sizes[order])
    pairs = np.stack([diagonal, squares], axis=1)
    fractions = np.arange(1, _SECTIONS) / _SECTIONS
    piece = _CHUNK_BYTES // fractions.nbytes
    with np.errstate(divide="ignore", over="ignore"):
        for first in range(0, lane_run.size, piece):
            run = lane_run[first:first + piece]
            rank = lane_rank[first:first + piece]
            length = sizes[run]
            active = np.searchsorted(-length, -np.arange(1, length[0])).tolist()
            lo, hi = lower[run], upper[run]
            place, pivot = np.empty(run.size, dtype=np.intp), np.empty((run.size, fractions.size))
            sign, signs = np.empty(pivot.shape), np.empty(pivot.shape)
            # the count, (length - the sum of the signs) / 2, passes j where
            # that sum falls below length - 2 j
            passed = (length - 2 * rank)[:, None].astype(float)
            width = hi - lo
            while width.max() > floor:
                x = lo[:, None] + width[:, None] * fractions
                place[:] = starts[run]
                np.subtract(diagonal[place, None], x, out=pivot)
                np.copysign(1.0, pivot, out=signs)
                for a in active:
                    place[:a] += 1
                    row = pairs.take(place[:a], axis=0)
                    q = pivot[:a]
                    np.divide(row[:, 1:], q, out=q)
                    np.subtract(row[:, :1], q, out=q)
                    q -= x[:a]
                    signs[:a] += np.copysign(1.0, q, out=sign[:a])
                part = (signs >= passed).sum(axis=1)
                hi = np.where(part == fractions.size, hi, lo + width * ((part + 1) / _SECTIONS))
                lo = lo + width * (part / _SECTIONS)
                width = hi - lo
            values[starts[run] + rank] = lo + width / 2
    return values


def _sector_eigenvalues(spec: ChainSpec) -> np.ndarray:
    """Ascending eigenvalues of the dense Hamiltonian, each solved sector's
    spectrum repeated by its `copies`.  Every solved sector is built and
    split into its blocks, and the blocks of all sectors are solved in one
    call of :func:`jacobi_eigenvalues`."""
    sectors = _check_oracle_cost(spec)
    sites = chain_sites(spec)
    blocks, repeats = [], []
    for counts, copies, _, group in sectors:
        states = _sector_states(spec, counts)
        h = build_hamiltonian(spec, states, sites).matrix
        blocks += _symmetry_blocks(h, group.places(states), group.characters, group.real)
        repeats += [copies] * states.size
        del h  # before the next sector's is built
    values = np.concatenate(jacobi_eigenvalues(blocks))
    del blocks
    return np.sort(np.repeat(values, repeats))


def _multiplicity_pattern(values: np.ndarray, tol: float) -> tuple[int, ...]:
    """Cluster ascending values whose gaps stay below tol; return sizes."""
    starts = np.flatnonzero(np.diff(values) > tol) + 1
    return tuple(np.diff(starts, prepend=0, append=len(values)).tolist())


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
        """The report's JSON payload.  The spectra are the float arrays
        themselves, which the CLI's JSON writer encodes a slice at a time,
        so no list of their floats is built."""
        return {**self._asdict(), "spec": self.spec.to_json_dict(),
                "multiplicities_match": self.multiplicities_match}


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
    # the motif side first: its gate refuses chains (HS m = 1 at large N, say) before the
    # oracle's lists their sectors, for HS an (N/2 + 1) x N table of characters (180 MB
    # at N = 3000); its m**N values wait for the oracle's gate
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
