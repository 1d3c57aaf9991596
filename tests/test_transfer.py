"""Bond transfer matrices, their closed-form eigensystem, and the
characteristic function built from them."""

import math
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
    column_sum_residual,
    convergence_report,
    eigenvalues,
    eigenvector_matrix,
    top_eigenvalue_from_phase,
)
from hschain.density import density_dp
from hschain.transfer import (
    asymptotic_sweep,
    bond_overlap_residual,
    default_t_grid,
    eigen_decompose,
    transfer_matrix,
)


def test_matrix_entries_two_states():
    assert np.allclose(transfer_matrix(1.0, 2).matrix, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(transfer_matrix(1j, 2).matrix, [[0.5, -0.5], [0.5, 0.5]])


def test_matrix_entries_three_states_at_unit():
    assert np.allclose(transfer_matrix(1.0, 3).matrix, np.full((3, 3), 1 / 3))


def test_unit_point_eigenvalues_pick_out_the_last():
    assert np.allclose(eigenvalues(1.0, 2), [0.0, 1.0], atol=1e-15)
    assert np.allclose(eigenvalues(1.0, 3), [0.0, 0.0, 1.0], atol=1e-15)


def test_top_eigenvalue_closed_form_two_states():
    theta = np.linspace(-3.0, 3.0, 41)
    lam = top_eigenvalue_from_phase(theta, 2)
    assert np.allclose(lam, (1.0 + np.exp(1j * theta)) / 2.0, atol=1e-14)
    assert np.allclose(lam, np.exp(0.5j * theta) * np.cos(theta / 2.0), atol=1e-14)


def test_top_eigenvalue_is_continuous_across_the_wraparound():
    for m in (2, 3, 5):
        assert top_eigenvalue_from_phase(0.0, m) == 1.0
        assert top_eigenvalue_from_phase(2.0 * math.pi, m) == pytest.approx(1.0, abs=1e-9)
        left = top_eigenvalue_from_phase(2.0 * math.pi - 1e-9, m)
        right = top_eigenvalue_from_phase(2.0 * math.pi + 1e-9, m)
        assert abs(left - right) < 1e-6


def test_unit_point_eigenvector_matrix_two_states():
    u = eigenvector_matrix(1.0, 2)
    assert np.allclose(u, np.array([[-1.0, 1.0], [1.0, 1.0]]) / math.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_decomposition_reconstructs_the_matrix(m):
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-math.pi, math.pi, size=20):
        omega = complex(np.exp(1j * theta))
        dec = eigen_decompose(omega, m)
        assert np.abs(dec.eigenvalues).max() <= 1.0 + 1e-14
        assert np.abs(dec.u @ dec.u.conj().T - np.eye(m)).max() < 1e-13
        assert np.abs(dec.reconstruct() - transfer_matrix(omega, m).matrix).max() < 1e-13


def test_decomposition_rejects_off_circle_points():
    with pytest.raises(ValidationError):
        eigen_decompose(1.1, 3)
    with pytest.raises(ValidationError):
        eigen_decompose(0.0, 3)


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


def test_charfn_conjugate_symmetry():
    spec = ChainSpec("HS", 6, 3)
    values = charfn_exact(spec, t_grid=default_t_grid())
    assert np.abs(values - np.conj(values[::-1])).max() < 1e-13


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
    anti = charfn_exact(spec.with_epsilon(-1), t_grid=t)
    assert np.abs(anti - np.conj(ferro)).max() < 1e-13
    anti_asym = charfn_asymptotic(spec.with_epsilon(-1), t_grid=t)
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
    energies = np.array([float(density.energy(e)) for e, _ in density.items()])
    weights = np.array([float(d) for _, d in density.items()])
    phases = np.exp(1j * np.outer(t / stats.sigma, energies))
    center = np.exp(-1j * (float(stats.mu) / stats.sigma) * t)
    reference = center * (phases @ weights) / float(density.total)
    assert np.array_equal(charfn_from_density(density, stats, t), reference)
