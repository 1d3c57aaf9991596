"""The characteristic function of the level density, through the bond
transfer matrices.

The partition function of any of the three chains factors into an ordered
product of m x m Toeplitz matrices, one per bond.  On the unit circle each
factor T(omega) has a closed-form unitary diagonalisation with eigenvalues
of modulus at most one, which is what makes long products stable and lets
the normalized characteristic function

    phi(t) = exp(-i mu t / sigma) * (1/m) * sum of entries of
             T(omega_1) T(omega_2) ... T(omega_{N-1})

be evaluated for thousands of spins in double precision.  The asymptotic
approximation keeps only the top eigenvalue of each factor.  Both approach
the Gaussian exp(-t**2/2) and the gap between them closes;
:func:`convergence_report` fits the rates (about N**-1 for both, and
N**-2 for the gap of HS chains, on sweeps up to N = 16384).

T(omega) is 1/m where the ferromagnetic pairing rule
(:func:`hschain.motifs.delta_bits`) gives 0 and omega**m / m where it
gives 1.  Its top eigenvalue is
lambda_m(e^(i x)) = e^(i (m-1) x/2) U_{m-1}(cos(x/2)) / m, with U the
Chebyshev polynomial of the second kind.

Neither characteristic function multiplies m x m matrices.  The
antiferromagnetic bits are exactly one minus the ferromagnetic bits of the
same configuration, so both kernels compute the ferromagnetic value,
centred at mu_ferro = (sum of the dispersion) - mu for the antiferromagnetic
sign, and return its complex conjugate for that sign.  :func:`charfn_exact`
then expands the product over bonds into maximal runs of set bits, whose
probabilities come from the ferromagnetic pairing mask; that costs
2 (m - 1) elementwise operations per bond on arrays over t.
:func:`charfn_asymptotic` multiplies the real Chebyshev factors and puts
the whole phase into one scalar per t: one cos and an m-step recurrence per
(t, bond).

Where the bond weights are palindromic, as HS's F(i) = F(N - i) are, both
kernels pay those costs only per bond of the first half: the run recursion
meets its own mirror image at the middle bond, and the Chebyshev product is
the square of the first half's.  PF and FI run every bond.

The spectrum is real, so phi(-t) = conj phi(t), and both kernels run once
per distinct |t| and conjugate the values at t < 0 (:func:`_mirrored`).
:func:`default_t_grid` is exactly antisymmetric, so on it each kernel does
half the (bond, t) work of evaluating every t.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .chains import FERRO, ChainSpec, dispersion, normalized_dispersion
from .errors import ValidationError
from .moments import SpectrumStats, closed_form_moments
from .motifs import delta_bits
from .table import _CHUNK_BYTES, DensityTable, check_grid_budget


def _dirichlet_mean(c: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """U_{m-1}(c) / m, from U_0 = 1 and U_1 = 2c by U_{k+1} = 2c U_k - U_{k-1}.

    At c = cos(x/2) this is the real Dirichlet mean sin(m x/2) / (m sin(x/2)),
    the top eigenvalue of T(e^(i x)) without its phase e^(i (m-1) x/2).  It
    is exactly 1 at c = 1, where every U_k is the integer k + 1.

    ``out`` is a scratch stack of three float arrays of c's shape.  The
    float array c is overwritten as well and the value is one of the four
    arrays, so nothing is allocated.  Each U_(k+1) goes into the array that
    holds neither 2c, U_k nor U_(k-1).
    """
    if m == 1:
        c.fill(1.0)
        return c
    two_c = np.add(c, c, out[0, ...])
    spare = (out[1, ...], out[2, ...], c)
    prev, cur = 1.0, two_c
    for k in range(m - 2):
        new = spare[k % 3]
        np.multiply(two_c, cur, new)
        np.subtract(new, prev, new)
        prev, cur = cur, new
    return np.divide(cur, m, cur)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def default_t_grid(t_max: float = 6.0, points: int = 241) -> np.ndarray:
    """Uniform grid on [-t_max, t_max] that is exactly antisymmetric:
    t[-1 - i] is -t[i] bit for bit, so the kernels evaluate each pair once.

    ``np.linspace`` alone is not (at the default 241 points only 83 points
    are the exact negatives of their mirror points), so each point is the
    half difference of linspace and its reverse.  Halving is exact, and
    fl(a - b) = -fl(b - a), so the grid keeps +-t_max, and a point moves by
    half of linspace's own asymmetry and one rounding: at most one unit in
    the last place of t_max at the default grid.  Past half the float range
    linspace's step overflows, and the grid it gives is NaN.  The grid is
    written over linspace's own array, so two arrays of its size are held.
    """
    g = np.linspace(-t_max, t_max, points)
    half = g / 2
    return np.subtract(half, half[::-1], out=g)


def _stats_and_grid(spec: ChainSpec, stats: SpectrumStats | None, t_grid):
    """The moments (closed form unless given), checked for a positive width,
    and the t values (:func:`default_t_grid` unless given) as floats."""
    if stats is None:
        stats = closed_form_moments(spec)
    if not stats.sigma > 0:
        raise ValidationError("characteristic function needs a positive spectral width")
    return stats, np.asarray(default_t_grid() if t_grid is None else t_grid, dtype=float)


def _mirrored(t: np.ndarray, antiferro: bool, ferro_at) -> np.ndarray:
    """The characteristic function on the grid `t`, from ``ferro_at``, the
    ferromagnetic value on a 1-d array of t >= 0, evaluated once per
    distinct |t|.

    A real spectrum gives phi(-t) = conj phi(t): cos is even and sin odd
    bit for bit, and conjugation commutes with IEEE complex products and
    sums, so a mirrored value equals the one computed at -t directly.  The
    imaginary part at t < 0 is negated as 0 - y, which keeps a zero +0, as
    the direct product gives it where the value is real (the asymptotic
    kernel's, for closed-form moments), so an artifact prints 0, not -0.
    The antiferromagnetic value is then the conjugate of the ferromagnetic
    one at every t.  A grid with a value that is not finite is refused.

    On an exactly antisymmetric grid (every :func:`default_t_grid`),
    t[i] pairs with t[-1 - i] by index, and the kernel runs on the |t| of
    the upper half; any other grid is paired through ``np.unique``.
    """
    flat = t.reshape(-1)
    if np.array_equal(flat, -flat[::-1]):
        magnitudes = np.abs(flat[flat.size // 2 :])
        inverse = np.abs(2 * np.arange(flat.size) - (flat.size - 1)) // 2
    else:
        magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        values = ferro_at(magnitudes)[inverse]
    if not np.isfinite(values).all():
        raise ValidationError(f"the characteristic function is not finite on a t grid up to |t| = "
                              f"{magnitudes.max():.3g}: the grid or its phases pass the float range")
    np.subtract(0.0, values.imag, out=values.imag, where=flat < 0)
    if antiferro:
        np.conjugate(values, out=values)
    return values.reshape(t.shape)[()]


def _run_factors(m: int):
    """The factors of charfn_exact, from p_L = 1^T M^L 1 / m^(L+1), the
    probability that L given consecutive bonds all carry a set bit, with M
    the ferromagnetic pairing mask; p_0 = 1, and p_L = 0 from L = m on.

    Returns the ratios p_(r+1) / p_r for r = 0 .. m-2, and the join
    K[r, s] = p_(r+s) / (p_r p_s) for r, s = 0 .. m-1, which is 1 where r or
    s is 0: a run of r bonds that ends where a run of s bonds starts makes
    one run of r + s bonds.  With c_L = 1^T M^L 1, K[r, s] is the ratio of
    integers m c_(r+s) / (c_r c_s), divided once.
    """
    k = np.arange(1, m + 1)
    mask = delta_bits(FERRO, k[:, None], k[None, :]).tolist()
    paths, counts = [1] * m, [m]
    for _ in range(m - 1):
        paths = [sum(p for p, bit in zip(paths, row) if bit) for row in mask]
        counts.append(sum(paths))
    ratios = np.array([counts[r + 1] / (m * counts[r]) for r in range(m - 1)])
    counts += [0] * (m - 1)
    join = np.array([[m * counts[r + s] / (counts[r] * counts[s]) for s in range(m)]
                     for r in range(m)])
    return ratios, join


def _reflected_bonds(spec: ChainSpec) -> int:
    """The number c of bonds that the reflection i <-> N - i repeats:
    floor((N - 1)/2) where the bond weights read the same backwards, as
    HS's F(i) = i (N - i) do, and 0 otherwise (PF, FI, or a single bond).
    Decided once per dispersion table from the exact scaled integers.  The
    kernels then run only the first N - 1 - c bonds."""
    table = dispersion(spec)
    return len(table) // 2 if table._palindromic else 0


def _ferro_center(spec: ChainSpec, stats: SpectrumStats):
    """The mean of the ferromagnetic spectrum: mu itself for that sign, and
    the dispersion's sum less mu for the other, whose bits are one minus the
    ferromagnetic bits of the same configuration."""
    return stats.mu if spec.epsilon == FERRO else dispersion(spec).total - stats.mu


def charfn_exact(spec: ChainSpec, stats: SpectrumStats | None = None, t_grid=None) -> np.ndarray:
    """Exact normalized characteristic function on a grid of t values.

    With w_i = e^(i t F(i) / sigma) and b_i the ferromagnetic bits, the
    uncentred value is E[prod over bonds of (1 + (w_i - 1) b_i)].  Expanded,
    each subset of bonds splits into maximal runs of consecutive bonds;
    different runs share no spin, so the expectation factorises over runs,
    and a run of L bonds contributes p_L (see ``_run_factors``), which is 0
    from L = m on.  The recursion keeps m partial sums A[r], r the length of
    the run that ends at the current bond, and per bond sets
    A[0] <- sum of A and A[r+1] <- A[r] (w_i - 1) p_(r+1) / p_r: 2 (m - 1)
    elementwise operations on arrays over t, O(N m) in all.  The
    antiferromagnetic value is the complex conjugate of the ferromagnetic
    one centred at the dispersion's sum less mu.  The recursion runs once
    per distinct |t|, and the values at t < 0 are its conjugates.

    Where the weights are palindromic (HS), the recursion meets itself in
    the middle and runs only the first ceil((N - 1)/2) bonds.  Split at
    c = floor((N - 1)/2): run backwards over bonds N - 1 .. c + 1, the
    recursion sees the weights F(1) .. F(N - 1 - c), so its state is the
    forward state A_(N-1-c), and the uncentred value is
    sum over r, s of A_c[r] K[r, s] A_(N-1-c)[s], with the join K of
    ``_run_factors`` merging the run that ends at bond c with the one that
    starts at bond c + 1.  A_c is the last state for an even N - 1 and the
    one a bond back for an odd N - 1.  PF and FI run every bond.

    The steps (w_i - 1) p_(r+1) / p_r are built a block of bonds at a time,
    from one real cos and one sin over the block's (bond, t) phases.  A
    block holds about ``_CHUNK_BYTES`` (512 KiB) of steps, or one bond's
    where those are larger, so the memory does not grow with N.  The
    buffers of a block and of the two states are made once per call
    (:func:`_run_states`), so the loop over bonds allocates nothing.
    """
    stats, t = _stats_and_grid(spec, stats, t_grid)
    m = spec.m
    gam = normalized_dispersion(spec, stats.sigma)
    cut = _reflected_bonds(spec)
    weights = (m * gam[: gam.size - cut])[:, None, None]
    ratios, join = _run_factors(m)
    ratios = ratios[:, None]
    center = float(_ferro_center(spec, stats)) / stats.sigma

    def ferro_at(flat):
        state, before = _run_states(weights, ratios, flat)
        if not cut:
            return np.exp(-1j * center * flat) * state.sum(axis=0)
        first = before if weights.shape[0] > cut else state
        total = np.zeros(flat.size, dtype=complex)
        for r in range(m):
            total += first[r] * (join[r, : m - r, None] * state[: m - r]).sum(axis=0)
        return np.exp(-1j * center * flat) * total

    return _mirrored(t, spec.epsilon != FERRO, ferro_at)


def _run_states(weights, ratios, flat):
    """The run recursion of :func:`charfn_exact` over the bonds whose phases
    per unit of t are `weights` (m gamma_i, shaped (bonds, 1, 1)), on the t
    values `flat`: the last state and the one a bond back.

    Every buffer is made once per call.  A block of phases, their cos and
    sin, and the steps are written into buffers of one block, and the steps'
    per-bond rows are listed once; the two states are viewed once each
    (whole, row 0, rows [:-1] and rows [1:]), and a bond swaps the two
    tuples of views.  So a bond makes no Python object and calls
    ``np.add.reduce`` and ``np.multiply`` with positional ``out``; a block
    allocates nothing, and the last, shorter block takes views of the
    buffers' first rows.  The operations and their order are those of one
    array per block.
    """
    m, size, bonds = len(ratios) + 1, flat.size, len(weights)  # a ratio per r = 0 .. m-2
    block = min(bonds, max(1, _CHUNK_BYTES // (16 * max(1, m - 1) * max(1, size))))
    theta = np.empty((block, 1, size))
    trig = np.empty_like(theta)
    steps = np.empty((block, m - 1, size), dtype=complex)
    real, imag, rows = steps.real, steps.imag, list(steps)
    state = np.zeros((m, size), dtype=complex)
    state[0] = 1.0
    cur, nxt = [(a, a[0], a[:-1], a[1:]) for a in (state, np.empty_like(state))]
    reduce_sum, multiply = np.add.reduce, np.multiply
    for lo in range(0, bonds, block):
        if bonds - lo < block:
            k = bonds - lo
            theta, trig, real, imag, rows = theta[:k], trig[:k], real[:k], imag[:k], rows[:k]
        np.multiply(weights[lo : lo + block], flat, theta)
        np.cos(theta, trig)
        np.subtract(trig, 1.0, trig)
        np.multiply(trig, ratios, real)
        np.sin(theta, trig)
        np.multiply(trig, ratios, imag)
        for step in rows:
            reduce_sum(cur[0], 0, None, nxt[1])
            multiply(cur[2], step, nxt[3])
            cur, nxt = nxt, cur
    return cur[0], nxt[0]


def charfn_asymptotic(spec: ChainSpec, stats: SpectrumStats | None = None, t_grid=None) -> np.ndarray:
    """Top-eigenvalue approximation of the characteristic function.

    Multiplies the principal eigenvalue of every bond factor and restores
    the centering phase.  With x_i = t gamma_i, gamma the normalized
    dispersion, the eigenvalue is e^(i (m-1) x_i/2) U_{m-1}(cos(x_i/2)) / m,
    so the product is a real product of Chebyshev factors, one cos and an
    m-step recurrence per (t, bond), times one phase per t,
    t ((m-1)/2 sum of gamma - mu_ferro / sigma).  That phase is formed from
    the exact dispersion sum and mean, so it is exactly 0 for closed-form
    moments.  For the antiferromagnetic sign the spectrum is the mirror
    image of the ferromagnetic one, so the value is the complex conjugate
    of the ferromagnetic approximation.  The product is taken once per
    distinct |t|, and the values at t < 0 are its conjugates.

    Where the weights are palindromic (HS), only the factors of the first
    ceil((N - 1)/2) bonds are formed: the product is the square of the
    first floor((N - 1)/2) of them, times the middle one for an odd N - 1.
    PF and FI form every factor, and their products are those of every
    bond bit for bit (the square of an empty product is exactly 1).

    The factors are taken a chunk of t values at a time, each chunk about
    ``_CHUNK_BYTES`` (512 KiB) of floats, or one t value's where those are
    larger, and reduced to its products before the next, so the memory
    does not grow with the number of t values times N.  The chunk's phases,
    cosines, recurrence and products are written into buffers made once
    per call, the last, shorter chunk into their first rows.
    """
    stats, t = _stats_and_grid(spec, stats, t_grid)
    m = spec.m
    cut = _reflected_bonds(spec)
    half = normalized_dispersion(spec, stats.sigma) / 2
    half = half[: half.size - cut]
    rows = max(1, _CHUNK_BYTES // (8 * half.size))
    drift = Fraction(m - 1, 2 * m) * dispersion(spec).total - _ferro_center(spec, stats)

    def ferro_at(flat):
        size = min(rows, flat.size)
        scratch = np.empty((3, size, half.size))
        cosines = np.empty((size, half.size))
        first, rest = np.empty(size), np.empty(size)
        product = np.empty(flat.shape)
        for lo in range(0, flat.size, rows):
            if flat.size - lo < size:
                k = flat.size - lo
                scratch, cosines, first, rest = scratch[:, :k], cosines[:k], first[:k], rest[:k]
            np.multiply(flat[lo : lo + rows, None], half, scratch[0])
            np.cos(scratch[0], cosines)
            factors = _dirichlet_mean(cosines, m, scratch)
            np.multiply.reduce(factors[:, :cut], -1, None, first)
            np.multiply.reduce(factors[:, cut:], -1, None, rest)
            np.multiply(first, first, first)
            np.multiply(first, rest, product[lo : lo + rows])
        return np.exp(1j * (float(drift) / stats.sigma) * flat) * product

    return _mirrored(t, spec.epsilon != FERRO, ferro_at)


def charfn_from_density(density: DensityTable, stats: SpectrumStats, t_grid) -> np.ndarray:
    """Characteristic function evaluated directly from an exact density.

    Reference route for consistency checks: a plain phase-weighted sum over
    the levels, in the shape of `t_grid`.  Degeneracies beyond 2**53 would
    lose precision in the float conversion, so keep cross-checks below that.

    The phases are one t x levels complex outer product, made from its real
    argument and its complex copy: a tracemalloc peak of 32 bytes a t value
    and level (HS N=48 m=3, 11,690 levels on the default grid: 90.3 MB), plus
    up to 64 bytes a t value and 64 KiB of the product's buffers on tables
    of 1 to 1000 levels.  It is refused over the memory budget before
    anything is allocated.
    """
    t = np.asarray(t_grid, dtype=float)
    nbytes = 32 * t.size * (len(density) + 2) + (1 << 16)
    check_grid_budget(f"charfn_from_density of {t.size} t values and {len(density)} levels needs "
                      f"32 x {t.size} x ({len(density)} + 2) + 65536 = {nbytes} bytes", nbytes)
    energies = density.levels() / density.energy_scale
    weights = np.fromiter(map(float, density.degeneracies), dtype=float, count=len(density))
    phases = np.exp(1j * np.outer(t / stats.sigma, energies))
    center = np.exp(-1j * (float(stats.mu) / stats.sigma) * t)
    return center * (phases @ weights).reshape(t.shape) / float(density.total)


class CharFnSeries(NamedTuple):
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


def _sup_distance(values: np.ndarray, reference: np.ndarray) -> float:
    """max |values - reference|, taken over pieces of ``_CHUNK_BYTES`` of
    complex differences, so that no difference or modulus of the whole
    grid is held.  Each element goes through the same subtract and abs as
    in one pass, and a max is exact, so the value is that of one pass."""
    values, reference = np.ravel(values), np.ravel(reference)
    step = _CHUNK_BYTES // 16
    return float(np.max([np.abs(values[lo : lo + step] - reference[lo : lo + step]).max()
                         for lo in range(0, values.size, step)]))


class ConvergenceReport(NamedTuple):
    """Sup-norm deviations of the characteristic function over an N sweep."""

    n_values: tuple
    gauss_deviation: np.ndarray
    asym_deviation: np.ndarray
    gauss_slope: float
    asym_slope: float


def convergence_report(chains, t_grid=None) -> ConvergenceReport:
    """Distance to the Gaussian and to the top-eigenvalue approximation,
    for a sweep of chains (``ChainSpec``s that differ in N, in sweep order),
    on the t values `t_grid` (:func:`default_t_grid` unless given), with
    fitted log-log decay slopes.

    Raises
    ------
    ValidationError
        If the sweep has fewer than two distinct N, through which no slope
        can be fitted.
    """
    n_values = tuple(spec.n_spins for spec in chains)
    if len(set(n_values)) < 2:
        raise ValidationError(
            f"convergence sweep {n_values} has one N; fitting a slope needs two distinct N"
        )
    d_gauss, d_asym = [], []
    for spec in chains:
        series = charfn_series(spec, t_grid=t_grid)
        d_gauss.append(_sup_distance(series.exact_values, series.gaussian_ref))
        d_asym.append(_sup_distance(series.exact_values, series.asymptotic_values))
    logn = np.log(np.asarray(n_values, dtype=float))
    return ConvergenceReport(
        n_values=n_values,
        gauss_deviation=np.asarray(d_gauss),
        asym_deviation=np.asarray(d_asym),
        gauss_slope=float(np.polyfit(logn, np.log(d_gauss), 1)[0]),
        asym_slope=float(np.polyfit(logn, np.log(d_asym), 1)[0]),
    )
