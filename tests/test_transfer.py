"""Bond transfer matrices, their closed-form eigensystem, and the
characteristic function built from them."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hschain import (
    ChainSpec,
    ValidationError,
    charfn_asymptotic,
    charfn_exact,
    charfn_from_density,
    charfn_series,
    closed_form_moments,
    convergence_report,
)
from hschain.chains import dispersion, normalized_dispersion
from hschain.density import density_dp
from hschain.table import _CHUNK_BYTES
from hschain.transfer import (
    _dirichlet_mean,
    _mirrored,
    _run_factors,
    default_t_grid,
)
from diagnostics import (asymptotic_sweep, bond_overlap_residual, column_sum_residual, eigenvalues,
                         eigenvector_matrix)


def test_unit_point_eigenvalues_pick_out_the_last():
    assert np.allclose(eigenvalues(1.0, 2), [0.0, 1.0], atol=1e-15)
    assert np.allclose(eigenvalues(1.0, 3), [0.0, 0.0, 1.0], atol=1e-15)


def _mean(c, m):
    """The Dirichlet mean of a float copy of `c`, in a scratch array of its own."""
    c = np.array(c, dtype=float)
    return _dirichlet_mean(c, m, np.empty((3,) + c.shape))


def _top_eigenvalue(x, m):
    """lambda_m(e^(i x)) as charfn_asymptotic forms it: the real Dirichlet
    mean of cos(x/2) times the phase e^(i (m-1) x/2), which that kernel
    gathers into one phase per t."""
    x = np.asarray(x, dtype=float)
    return _mean(np.cos(x / 2), m) * np.exp(0.5j * (m - 1) * x)


def test_top_eigenvalue_closed_form_two_states():
    theta = np.linspace(-3.0, 3.0, 41)
    lam = _top_eigenvalue(theta, 2)
    assert np.allclose(lam, (1.0 + np.exp(1j * theta)) / 2.0, atol=1e-14)
    assert np.allclose(lam, np.exp(0.5j * theta) * np.cos(theta / 2.0), atol=1e-14)


def test_top_eigenvalue_is_continuous_across_the_wraparound():
    for m in range(1, 7):
        for zero in (0.0, -0.0):
            assert _top_eigenvalue(zero, m) == 1.0  # exactly
        assert _top_eigenvalue(2.0 * math.pi, m) == pytest.approx(1.0, abs=1e-9)
        left = _top_eigenvalue(2.0 * math.pi - 1e-9, m)
        right = _top_eigenvalue(2.0 * math.pi + 1e-9, m)
        assert abs(left - right) < 1e-6


def test_unit_point_eigenvector_matrix_two_states():
    u = eigenvector_matrix(1.0, 2)
    assert np.allclose(u, np.array([[-1.0, 1.0], [1.0, 1.0]]) / math.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_decomposition_reconstructs_the_matrix(m):
    # reference T(omega) under the ferro rule: 1/m on and below the
    # diagonal, omega**m / m above it
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-math.pi, math.pi, size=20):
        omega = complex(np.exp(1j * theta))
        lam, u = eigenvalues(omega, m), eigenvector_matrix(omega, m)
        direct = np.where(upper, omega ** m, 1.0) / m
        assert np.abs(lam).max() <= 1.0 + 1e-14
        assert np.abs(u @ u.conj().T - np.eye(m)).max() < 1e-13
        assert np.abs((u * lam[None, :]) @ u.conj().T - direct).max() < 1e-13


def test_column_sums_collapse_at_the_unit_point():
    for m in range(2, 7):
        assert column_sum_residual(1.0, m).max() < 1e-12


def test_column_energy_total_is_pinned_on_the_circle():
    # away from omega = 1 the per-column split moves, but unitarity fixes
    # the total over columns at m
    rng = np.random.default_rng(11)
    for m in (2, 4, 6):
        omega = np.exp(1j * rng.uniform(-math.pi, math.pi, size=50))
        u = eigenvector_matrix(omega, m)
        total = (np.abs(u.sum(axis=-2)) ** 2).sum(axis=-1)
        assert np.abs(total - m).max() < 1e-12


def test_charfn_is_one_at_zero():
    grid = np.array([0.0])
    for spec in (ChainSpec("HS", 6, 2), ChainSpec("FI", 5, 3, -1, Fraction(3, 2))):
        assert charfn_exact(spec, t_grid=grid)[0] == pytest.approx(1.0, abs=1e-14)
        assert charfn_asymptotic(spec, t_grid=grid)[0] == pytest.approx(1.0, abs=1e-14)


def test_charfn_matches_the_level_sum_for_a_tiny_chain():
    # three levels, so the whole function can be written out directly
    spec = ChainSpec("PF", 3, 2)
    sigma = math.sqrt(11) / 4
    t = default_t_grid(4.0, 81)
    expected = (
        np.exp(-1j * (3 / 4) * t / sigma)
        * (4 + 2 * np.exp(1j * t / sigma) + 2 * np.exp(2j * t / sigma))
        / 8
    )
    assert np.abs(charfn_exact(spec, t_grid=t) - expected).max() < 1e-13


@pytest.mark.parametrize("t_max", [6.0, 3.5, 7.3, 1e-3])
def test_default_t_grid_is_exactly_antisymmetric(t_max):
    for points in (2, 3, 17, 240, 241):
        t = default_t_grid(t_max, points)
        assert np.array_equal(t, -t[::-1]), points
        assert t[0] == -t_max and t[-1] == t_max, points
        assert np.abs(t - np.linspace(-t_max, t_max, points)).max() <= np.spacing(t_max), points


def test_charfn_modulus_never_exceeds_one():
    for spec in (ChainSpec("HS", 12, 2), ChainSpec("PF", 9, 3, -1)):
        assert np.abs(charfn_exact(spec)).max() <= 1.0 + 1e-12
        assert np.abs(charfn_asymptotic(spec)).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 7, 2),
    ChainSpec("PF", 6, 3, -1),
    ChainSpec("FI", 6, 2, -1, Fraction(3, 2)),
])
def test_charfn_agrees_with_the_density_route(spec):
    stats = closed_form_moments(spec)
    t = default_t_grid()
    via_product = charfn_exact(spec, stats, t)
    via_density = charfn_from_density(density_dp(spec), stats, t)
    assert np.abs(via_product - via_density).max() < 1e-12


def test_sign_flip_conjugates_the_charfn():
    spec = ChainSpec("PF", 8, 2)
    t = default_t_grid(5.0, 61)
    ferro = charfn_exact(spec, t_grid=t)
    anti = charfn_exact(replace(spec, epsilon=-1), t_grid=t)
    assert np.abs(anti - np.conj(ferro)).max() < 1e-13
    anti_asym = charfn_asymptotic(replace(spec, epsilon=-1), t_grid=t)
    ferro_asym = charfn_asymptotic(spec, t_grid=t)
    assert np.abs(anti_asym - np.conj(ferro_asym)).max() < 1e-13


def test_series_bundles_the_three_curves():
    series = charfn_series(ChainSpec("HS", 8, 2))
    assert series.t_grid.shape == series.exact_values.shape
    assert series.gaussian_ref.max() == pytest.approx(1.0)
    mid = series.t_grid.size // 2
    assert series.t_grid[mid] == 0.0 and series.asymptotic_values[mid] == 1.0


def test_deviations_shrink_with_chain_length():
    report = convergence_report("HS", 2, n_values=(8, 16, 32, 64))
    assert report.gauss_deviation[-1] < report.gauss_deviation[0]
    assert report.asym_deviation[-1] < report.asym_deviation[0]
    assert report.gauss_slope < -0.4
    assert report.asym_slope < -0.4


def test_convergence_needs_two_distinct_sizes():
    for n_values in ((16,), (16, 16)):
        with pytest.raises(ValidationError):
            convergence_report("HS", 2, n_values=n_values)


def test_bond_overlap_residual_decays():
    small = bond_overlap_residual(ChainSpec("PF", 16, 2), t=3.0)
    large = bond_overlap_residual(ChainSpec("PF", 128, 2), t=3.0)
    assert 0 < large < small


def test_sweep_diagnostics_come_back_scaled():
    out = asymptotic_sweep("FI", 2, n_values=(8, 16, 32), alpha=Fraction(3, 2))
    for key in ("weight_peak", "weight_step", "bond_overlap", "variance_residual"):
        assert out[key].shape == (3,)
        assert np.all(out[key] > 0)
    assert list(out["n"]) == [8, 16, 32]


def test_charfn_from_density_equals_the_levelwise_sum_bit_for_bit():
    spec = ChainSpec("FI", 12, 3, alpha=Fraction(5, 3))  # 1/3 is inexact
    stats = closed_form_moments(spec)
    density = density_dp(spec)
    t = np.linspace(-4.0, 4.0, 9)
    energies = np.array([e / density.energy_scale for e, _ in density.items()])
    weights = np.array([float(d) for _, d in density.items()])
    phases = np.exp(1j * np.outer(t / stats.sigma, energies))
    center = np.exp(-1j * (float(stats.mu) / stats.sigma) * t)
    reference = center * (phases @ weights) / float(density.total)
    assert np.array_equal(charfn_from_density(density, stats, t), reference)


# The characteristic-function products as they were first written: one
# factor built per bond, with its own mask for each sign, and the top
# eigenvalue over the whole (t, bond) phase array as the m-term geometric
# sum.  The kernels reorder the arithmetic (runs of set bits, the conjugate
# mirror, the Chebyshev form), so they agree with these within rounding.


def _charfn_exact_per_bond(spec, stats, t):
    m = spec.m
    k = np.arange(1, m + 1)
    if spec.epsilon == 1:
        mask = (k[:, None] < k[None, :]).astype(float)
    else:
        mask = (k[:, None] >= k[None, :]).astype(float)
    ones = np.ones((m, m))
    row = np.ones(t.shape + (m,), dtype=complex)
    for g in normalized_dispersion(spec, stats.sigma):
        w = np.exp(1j * (m * g) * t)
        factor = (ones + (w[..., None, None] - 1.0) * mask) / m
        row = np.einsum("...k,...kl->...l", row, factor)
    center = np.exp(-1j * (float(stats.mu) / stats.sigma) * t)
    return center * row.sum(axis=-1) / m


def _geometric_sum(x, m):
    x = np.asarray(x, dtype=float)
    ssum = np.zeros(x.shape, dtype=complex)
    for l in range(m):
        ssum += np.exp(1j * l * x)
    return ssum / m


def _charfn_asymptotic_whole_array(spec, stats, t):
    mu_ferro = stats.mu if spec.epsilon == 1 else dispersion(spec).total - stats.mu
    phases = t[..., None] * normalized_dispersion(spec, stats.sigma)
    lam = _geometric_sum(phases, spec.m)
    value = np.exp(-1j * (float(mu_ferro) / stats.sigma) * t) * lam.prod(axis=-1)
    return value if spec.epsilon == 1 else np.conj(value)


FAMILIES = [("HS", None), ("PF", None), ("FI", Fraction(3, 2)), ("FI", Fraction(5, 3))]


def _assert_charfns_near_the_references(spec, t, tol):
    stats = closed_form_moments(spec)
    for kernel, reference in ((charfn_exact, _charfn_exact_per_bond),
                              (charfn_asymptotic, _charfn_asymptotic_whole_array)):
        value, expected = kernel(spec, stats, t), reference(spec, stats, t)
        assert np.shape(value) == np.shape(expected), (spec, kernel.__name__)
        assert np.isscalar(value) == np.isscalar(expected), (spec, kernel.__name__)
        assert np.abs(value - expected).max(initial=0.0) <= tol, (spec, kernel.__name__)


def test_charfns_stay_near_the_per_bond_products():
    # N = 300 spans many bond blocks and several t chunks at every m
    t = default_t_grid()
    for (family, alpha), m, n, eps in itertools.product(
        FAMILIES, (2, 3, 4, 5), (2, 3, 17, 300), (1, -1)
    ):
        _assert_charfns_near_the_references(ChainSpec(family, n, m, eps, alpha), t, 1e-13)


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 4096, 3, 1),
    ChainSpec("PF", 4096, 2, -1),
    ChainSpec("FI", 4096, 4, 1, Fraction(3, 2)),
    ChainSpec("FI", 4096, 5, -1, Fraction(5, 3)),
])
def test_charfns_equal_the_per_bond_products_at_large_n(spec):
    _assert_charfns_near_the_references(spec, default_t_grid(), 2e-12)


def test_charfns_keep_the_grid_shape():
    spec = ChainSpec("FI", 40, 3, -1, Fraction(5, 3))
    for t in (np.array(0.7), np.array([]), np.linspace(-5.0, 5.0, 12).reshape(3, 4)):
        _assert_charfns_near_the_references(spec, t, 1e-13)


def test_charfn_conjugate_symmetry():
    # the kernels evaluate each |t| once and conjugate the values at t < 0,
    # so hold them, at both signs, to references that evaluate every t
    # directly: on a grid of negative t only, and on one where no t is the
    # exact negative of another
    negative, unmirrored = np.linspace(-6.0, -0.5, 23), np.linspace(-5.0, 3.0, 38)
    assert np.unique(np.abs(unmirrored)).size == unmirrored.size
    for (family, alpha), m, n, eps in itertools.product(
        FAMILIES, (2, 3, 5), (3, 17, 300), (1, -1)
    ):
        for t in (negative, unmirrored):
            _assert_charfns_near_the_references(ChainSpec(family, n, m, eps, alpha), t, 1e-13)


def test_a_real_asymptotic_value_keeps_the_sign_of_its_zero_imaginary_part():
    # closed-form moments make the asymptotic value real; the values mirrored
    # to t < 0 keep the +0 of the direct product, so an artifact prints 0 and
    # not -0 there, and the antiferromagnetic conjugate is -0 at every t
    for eps in (1, -1):
        value = charfn_asymptotic(ChainSpec("HS", 12, 3, eps), t_grid=default_t_grid())
        assert np.all(value.imag == 0)
        assert np.all(np.signbit(value.imag) == (eps == -1)), eps


def _charfn_exact_extended(spec, stats, t):
    """The per-bond row product in np.clongdouble, from the same float
    bond weights, with the mean taken exactly."""
    wide = np.longdouble
    m, tl = spec.m, t.astype(wide)
    k = np.arange(1, m + 1)
    if spec.epsilon == 1:
        mask = (k[:, None] < k[None, :]).astype(np.clongdouble)
    else:
        mask = (k[:, None] >= k[None, :]).astype(np.clongdouble)
    row = np.ones(t.shape + (m,), dtype=np.clongdouble)
    for g in normalized_dispersion(spec, stats.sigma):
        w = np.exp(1j * (wide(m) * wide(g) * tl))
        row = (row.sum(axis=-1, keepdims=True) + (w[..., None] - 1) * (row @ mask)) / m
    mu = wide(stats.mu.numerator) / wide(stats.mu.denominator)
    return np.exp(-1j * (mu / wide(stats.sigma) * tl)) * row.sum(axis=-1) / m


def _dirichlet_product_extended(spec, stats, t):
    """prod over bonds of sin(m x/2) / (m sin(x/2)), x = t gamma, in
    np.longdouble: the top-eigenvalue product once its phase is gone, which
    the closed-form mean makes exact."""
    wide = np.longdouble
    m, gam = spec.m, normalized_dispersion(spec, stats.sigma).astype(wide)
    out = np.ones(t.shape, dtype=wide)
    for i, tv in enumerate(t.astype(wide)):
        if tv != 0:
            x = tv * gam
            out[i] = (np.sin(m * x / 2) / (m * np.sin(x / 2))).prod()
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is no wider than float here")
@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 2048, 3, 1),
    ChainSpec("HS", 2048, 3, -1),
    ChainSpec("FI", 2048, 5, -1, Fraction(5, 3)),
])
def test_charfns_match_an_extended_precision_reference(spec):
    stats = closed_form_moments(spec)
    t = default_t_grid()
    exact = np.abs(charfn_exact(spec, stats, t) - _charfn_exact_extended(spec, stats, t))
    asym = np.abs(charfn_asymptotic(spec, stats, t) - _dirichlet_product_extended(spec, stats, t))
    assert float(exact.max()) <= 3e-14
    assert float(asym.max()) <= 1e-13


def test_top_eigenvalue_matches_the_geometric_sum_near_the_removable_points():
    # eigenvalues(omega, m)[..., m - 1] is the geometric sum mean of omega**l
    turns = 2.0 * math.pi * np.arange(-6, 7)
    x = np.concatenate([turns, turns + 1e-9, turns - 1e-9, turns + 1e-8, [-0.0, 5e-324],
                        np.linspace(-20.0, 20.0, 401)]).reshape(-1, 7)
    for m in range(1, 7):
        lam = _top_eigenvalue(x, m)
        assert lam.shape == x.shape
        assert np.abs(lam - eigenvalues(np.exp(1j * x), m)[..., m - 1]).max() <= 1e-14
        assert np.all(_top_eigenvalue(np.array([0.0, -0.0]), m) == 1.0)


# Both kernels as they ran before the reflection F(i) = F(N - i) was folded
# in: the run recursion forward over every bond, and the Chebyshev product
# of every bond's factor.  PF and FI still run exactly these operations.


def _charfn_exact_every_bond(spec, stats, t):
    m = spec.m
    gam = normalized_dispersion(spec, stats.sigma)
    ratios = _run_factors(m)[0][:, None]
    mu_ferro = stats.mu if spec.epsilon == 1 else dispersion(spec).total - stats.mu
    center = float(mu_ferro) / stats.sigma

    def ferro_at(flat):
        state = np.zeros((m, flat.size), dtype=complex)
        state[0] = 1.0
        spare = np.empty_like(state)
        block = max(1, _CHUNK_BYTES // (16 * max(1, m - 1) * max(1, flat.size)))
        for lo in range(0, gam.size, block):
            theta = (m * gam[lo : lo + block, None, None]) * flat
            steps = np.empty((theta.shape[0], m - 1, flat.size), dtype=complex)
            np.multiply(np.cos(theta) - 1.0, ratios, out=steps.real)
            np.multiply(np.sin(theta), ratios, out=steps.imag)
            for step in steps:
                np.add.reduce(state, axis=0, out=spare[0])
                np.multiply(state[:-1], step, out=spare[1:])
                state, spare = spare, state
        return np.exp(-1j * center * flat) * state.sum(axis=0)

    return _mirrored(t, spec.epsilon != 1, ferro_at)


def _charfn_asymptotic_every_bond(spec, stats, t):
    m = spec.m
    half = normalized_dispersion(spec, stats.sigma) / 2
    mu_ferro = stats.mu if spec.epsilon == 1 else dispersion(spec).total - stats.mu
    drift = Fraction(m - 1, 2 * m) * dispersion(spec).total - mu_ferro

    def ferro_at(flat):
        product = _mean(np.cos(flat[:, None] * half), m).prod(axis=-1)
        return np.exp(1j * (float(drift) / stats.sigma) * flat) * product

    return _mirrored(t, spec.epsilon != 1, ferro_at)


def test_the_run_join_is_the_ratio_of_run_probabilities():
    # K[r, s] = p_(r+s) / (p_r p_s), with p the products of the ratios
    for m in range(1, 9):
        ratios, join = _run_factors(m)
        p = np.concatenate([[1.0], np.cumprod(ratios), np.zeros(m - 1)])
        assert join.shape == (m, m)
        assert np.all(join[0] == 1.0) and np.all(join[:, 0] == 1.0)
        assert np.array_equal(join, join.T)
        for r, s in itertools.product(range(1, m), repeat=2):
            assert join[r, s] == pytest.approx(p[r + s] / (p[r] * p[s]), rel=1e-15, abs=0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_the_folded_hs_charfn_equals_the_density_route_at_every_small_n(m):
    # N = 2..13 runs the cut c = floor((N - 1)/2) from 0 to 6, at both
    # parities of N - 1
    t = default_t_grid()
    for n, eps in itertools.product(range(2, 14), (1, -1)):
        spec = ChainSpec("HS", n, m, eps)
        stats = closed_form_moments(spec)
        via_density = charfn_from_density(density_dp(spec), stats, t)
        assert np.abs(charfn_exact(spec, stats, t) - via_density).max() <= 1e-13, (n, eps)


@pytest.mark.parametrize("n", [4096, 16384])
def test_the_folded_hs_charfn_stays_near_the_recursion_over_every_bond(n):
    t = default_t_grid()
    for eps in (1, -1):
        spec = ChainSpec("HS", n, 3, eps)
        stats = closed_form_moments(spec)
        value = charfn_exact(spec, stats, t)
        assert np.abs(value - _charfn_exact_every_bond(spec, stats, t)).max() <= 1e-13, eps


def test_pf_and_fi_run_every_bond_bit_for_bit():
    # their weights are not palindromic, so both kernels keep the operations
    # of the forward loop over every bond, on grids paired by index and by sort
    grids = (default_t_grid(), np.linspace(-5.0, 3.0, 38), np.array(0.7))
    for (family, alpha), m, n, eps in itertools.product(
        FAMILIES[1:], (2, 3, 5), (2, 3, 4, 17, 300), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        stats = closed_form_moments(spec)
        for t in grids:
            for kernel, reference in ((charfn_exact, _charfn_exact_every_bond),
                                      (charfn_asymptotic, _charfn_asymptotic_every_bond)):
                value, expected = kernel(spec, stats, t), reference(spec, stats, t)
                assert np.array_equal(value, expected), (spec, kernel.__name__)
                assert np.array_equal(np.signbit(np.imag(value)), np.signbit(np.imag(expected)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 64, 300, 4096, 16384])
def test_the_folded_hs_asymptotic_product_stays_within_rounding(n):
    # the square of the first half's product against the product of every
    # factor: the same factors multiplied in another order, whose rounding
    # adds up like a random walk (measured: 0 to 1.9 ulp up to N = 13, 46 at
    # N = 4096 and 100 at N = 16384)
    t = default_t_grid()
    bound = max(4.0, 2.0 * math.sqrt(n)) * np.finfo(float).eps
    for m, eps in itertools.product((2, 3, 4, 5), (1, -1)):
        spec = ChainSpec("HS", n, m, eps)
        stats = closed_form_moments(spec)
        value = charfn_asymptotic(spec, stats, t)
        expected = _charfn_asymptotic_every_bond(spec, stats, t)
        assert np.all(np.abs(value - expected) <= bound * np.abs(expected)), (m, eps)


def test_asymptotic_charfn_memory_stays_bounded():
    # the whole (t, bond) phase array and its temporaries took 415 MB here;
    # the exact kernel's blocks of run steps are held to the same bound
    spec = ChainSpec("HS", 16384, 3)
    stats = closed_form_moments(spec)
    for kernel in (charfn_asymptotic, charfn_exact):
        tracemalloc.start()
        try:
            kernel(spec, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, kernel.__name__


def _bits(values):
    """Shape and bytes of an array: equal for two arrays only if every value,
    its sign bit and any NaN payload are."""
    values = np.asarray(values)
    return values.shape, values.tobytes()


def _nan_filled(make):
    def filled(*args, **kwargs):
        out = make(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(complex(math.nan, math.nan) if out.dtype.kind == "c" else math.nan)
        return out
    return filled


def test_reused_buffers_are_written_before_they_are_read(monkeypatch):
    # both kernels make their buffers once per call with np.empty and fill
    # them block by block; a NaN in any buffer cell read before it is written
    # would reach the output.  The grids cover short last blocks and chunks:
    # 1001 points give 501 |t| values, more than one chunk of the
    # asymptotic kernel at N = 300
    grids = (None, np.linspace(-5.0, 3.0, 38), np.linspace(-6.0, 6.0, 1001))
    cases = [(ChainSpec(family, n, m, eps, alpha), t)
             for (family, alpha), m, n, eps in itertools.product(
                 FAMILIES, (2, 3, 5), (2, 3, 17, 300, 301), (1, -1))
             for t in grids]
    kernels = (charfn_exact, charfn_asymptotic)
    expected = [[_bits(kernel(spec, t_grid=t)) for kernel in kernels] for spec, t in cases]
    monkeypatch.setattr(np, "empty", _nan_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", _nan_filled(np.empty_like))
    for (spec, t), bits in zip(cases, expected):
        assert [_bits(kernel(spec, t_grid=t)) for kernel in kernels] == bits, spec


def test_a_call_leaves_nothing_for_the_next():
    chains = (ChainSpec("HS", 4096, 3), ChainSpec("PF", 300, 3), ChainSpec("HS", 4096, 3))
    first, between, again = ([_bits(kernel(spec)) for kernel in (charfn_exact, charfn_asymptotic)]
                             for spec in chains)
    assert again == first
    assert between != first
