"""Dense Hamiltonians, the Jacobi eigensolver, and the spectrum oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hschain import (
    CapacityError,
    ChainSpec,
    ValidationError,
    build_hamiltonian,
    chain_sites,
    jacobi_eigenvalues,
    oracle_compare,
)
from hschain.hamiltonian import exchange_coefficients


def test_circle_sites_are_uniform_angles():
    layout = chain_sites(ChainSpec("HS", 4, 2))
    assert np.allclose(layout.xi, [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])
    assert layout.residual == 0.0


def test_two_hermite_zeros():
    layout = chain_sites(ChainSpec("PF", 2, 2))
    root = 1 / math.sqrt(2)
    assert np.allclose(layout.xi, [-root, root], atol=1e-14)


def test_hermite_zeros_are_symmetric():
    xi = chain_sites(ChainSpec("PF", 7, 2)).xi
    assert np.allclose(xi, -xi[::-1], atol=1e-13)
    assert np.all(np.diff(xi) > 0)


def test_two_laguerre_sites():
    layout = chain_sites(ChainSpec("FI", 2, 2, alpha=1))
    expected = [0.5 * math.log(2 - math.sqrt(2)), 0.5 * math.log(2 + math.sqrt(2))]
    assert np.allclose(layout.xi, expected, atol=1e-13)


@pytest.mark.parametrize("spec", [
    ChainSpec("PF", 8, 2),
    ChainSpec("FI", 8, 2, alpha=Fraction(3, 2)),
    ChainSpec("FI", 8, 2, alpha=Fraction(1, 2)),
])
def test_zero_finding_residuals_stay_small(spec):
    assert chain_sites(spec).residual < 1e-10


def test_site_cap():
    with pytest.raises(CapacityError):
        chain_sites(ChainSpec("PF", 9, 2))
    chain_sites(ChainSpec("PF", 9, 2), cap=9)  # and the cap is adjustable


def test_exchange_strengths_are_positive_upper_triangle():
    coef = exchange_coefficients(ChainSpec("FI", 5, 2, alpha=2))
    upper = np.triu_indices(5, 1)
    assert np.all(coef[upper] > 0)
    assert np.all(coef[np.tril_indices(5)] == 0)


def test_two_spin_chain_by_hand():
    # sites pi/2 and pi, so the single pair strength is 1/2
    h = build_hamiltonian(ChainSpec("HS", 2, 2)).matrix
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.array_equal(h, expected)
    assert np.allclose(jacobi_eigenvalues(h), [0, 0, 0, 1])
    anti = build_hamiltonian(ChainSpec("HS", 2, 2, epsilon=-1)).matrix
    assert np.allclose(jacobi_eigenvalues(anti), [0, 1, 1, 1])


def test_hamiltonian_is_exactly_symmetric():
    h = build_hamiltonian(ChainSpec("FI", 4, 3, alpha=Fraction(3, 2))).matrix
    assert np.array_equal(h, h.T)


def test_aligned_states_are_annihilated():
    spec = ChainSpec("PF", 4, 3)
    h = build_hamiltonian(spec).matrix
    dim = spec.n_states
    for value in range(3):  # all spins equal to the same value
        index = value * (dim - 1) // 2
        assert np.abs(h[:, index]).max() == 0.0


def test_both_signs_sum_to_a_constant():
    spec = ChainSpec("HS", 3, 2)
    total = 2.0 * exchange_coefficients(spec).sum()
    h = build_hamiltonian(spec).matrix + build_hamiltonian(spec.with_epsilon(-1)).matrix
    assert np.allclose(h, total * np.eye(spec.n_states), atol=1e-12)


def test_trace_counts_misaligned_pairs():
    spec = ChainSpec("PF", 4, 2)
    h = build_hamiltonian(spec).matrix
    weight = exchange_coefficients(spec).sum()
    dim = spec.n_states
    assert np.trace(h) == pytest.approx(weight * (dim - dim // 2), rel=1e-12)


def test_dense_cap():
    with pytest.raises(CapacityError):
        build_hamiltonian(ChainSpec("HS", 13, 2))


def test_jacobi_solves_known_matrices():
    assert np.allclose(jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1, 3])
    assert np.allclose(jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])
    assert jacobi_eigenvalues(np.array([[5.0]])) == [5.0]
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12))
    sym = a + a.T
    assert np.allclose(jacobi_eigenvalues(sym), np.linalg.eigvalsh(sym), atol=1e-9)


def test_jacobi_rejects_bad_input():
    with pytest.raises(ValidationError):
        jacobi_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_oracle_two_spin_direct_match():
    for eps, sizes in ((1, (3, 1)), (-1, (1, 3))):
        report = oracle_compare(ChainSpec("HS", 2, 2, epsilon=eps))
        assert report.direct_deviation < 1e-10
        assert report.eigen_multiplicities == sizes
        assert report.multiplicities_match


@pytest.mark.parametrize("spec", [
    ChainSpec("PF", 4, 2),
    ChainSpec("HS", 4, 2, epsilon=-1),
    ChainSpec("FI", 3, 2, -1, Fraction(3, 2)),
])
def test_oracle_agreement_small_chains(spec):
    report = oracle_compare(spec)
    assert report.affine_deviation < 1e-8
    assert report.multiplicities_match
    assert report.to_json_dict()["multiplicities_match"] is True


def test_oracle_report_serializes():
    payload = oracle_compare(ChainSpec("PF", 3, 2)).to_json_dict()
    assert payload["spec"]["family"] == "PF"
    assert len(payload["eigenvalues"]) == 8
    assert sum(payload["motif_multiplicities"]) == 8


def test_expanded_density_repeats_every_level_by_its_degeneracy():
    from hschain.density import density_dp
    from hschain.hamiltonian import _expand_density

    density = density_dp(ChainSpec("FI", 6, 3, alpha=Fraction(5, 3)))
    values, sizes = _expand_density(density)
    reference = [float(density.energy(e)) for e, d in density.items() for _ in range(d)]
    assert values.tolist() == reference
    assert sizes == density.degeneracies
