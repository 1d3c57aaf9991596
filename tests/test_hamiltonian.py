"""Dense Hamiltonians, the Jacobi eigensolver, and the spectrum oracle."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import hschain.hamiltonian
from hschain import (
    CapacityError,
    ChainSpec,
    ConvergenceError,
    ValidationError,
    build_hamiltonian,
    chain_sites,
    jacobi_eigenvalues,
    oracle_compare,
)
from hschain.cli import main
from hschain.hamiltonian import (
    _block,
    _check_oracle_cost,
    _multiplicity_pattern,
    _sector_eigenvalues,
    _solved_sectors,
    exchange_coefficients,
)


def _brute_sectors(spec):
    """Ascending basis indices of every weight sector, keyed by the number
    of spins of each colour, read off the digits of every basis index."""
    digits = np.arange(spec.n_states)[:, None] // spec.m ** np.arange(spec.n_spins) % spec.m
    sectors = {}
    for state, row in enumerate(digits):
        sectors.setdefault(tuple(np.bincount(row, minlength=spec.m).tolist()), []).append(state)
    return {counts: np.array(states) for counts, states in sectors.items()}


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
    # the layout has no size cap of its own; at N = 12, the largest m = 2
    # chain under the dense cap, the zeros still converge
    for spec in (ChainSpec("PF", 12, 2), ChainSpec("FI", 12, 2, alpha=Fraction(3, 2))):
        assert chain_sites(spec).residual < 1e-10


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
    h = build_hamiltonian(spec).matrix + build_hamiltonian(replace(spec, epsilon=-1)).matrix
    assert np.allclose(h, total * np.eye(spec.n_states), atol=1e-12)


def test_trace_counts_misaligned_pairs():
    spec = ChainSpec("PF", 4, 2)
    h = build_hamiltonian(spec).matrix
    weight = exchange_coefficients(spec).sum()
    dim = spec.n_states
    assert np.trace(h) == pytest.approx(weight * (dim - dim // 2), rel=1e-12)


def test_dense_cap():
    for spec in (ChainSpec("HS", 13, 2), ChainSpec("HS", 15000, 2)):  # the last has 2**15000 states
        with pytest.raises(CapacityError):
            build_hamiltonian(spec)


@pytest.mark.parametrize("spec, refusal", [
    (ChainSpec("HS", 12, 2), None),  # 1.42e9 units of Jacobi work
    (ChainSpec("FI", 7, 3, alpha=2), None),
    (ChainSpec("HS", 13, 2), "over the ceiling"),  # 7.57e9 units
    (ChainSpec("HS", 5, 40), "over the budget"),  # 5 x 8 x 40**5 bytes: 4.1 GB of spectra
    (ChainSpec("HS", 7, 4), None),  # its whole H would need 2 x 8 x 16384**2 bytes
    (ChainSpec("HS", 5, 8), None),  # its whole H would need 2 x 8 x 32768**2 bytes
    # 5 x 8 x 24**5 bytes: 318 MB of spectra, but writing them as JSON takes 1.15 GB more
    (ChainSpec("HS", 5, 24), "over the budget"),
    # m**N has 4,516 digits, past the 4,300 that Python converts to text
    (ChainSpec("HS", 15000, 2), r"m\*\*N = 2\*\*15000 states .* over the budget"),
])
def test_oracle_cost_prediction(spec, refusal):
    if refusal is None:
        _check_oracle_cost(spec)
    else:
        with pytest.raises(CapacityError, match=refusal):
            _check_oracle_cost(spec)


def _spy_on_the_gate(monkeypatch):
    calls = []
    check = hschain.hamiltonian.check_grid_budget
    monkeypatch.setattr(hschain.hamiltonian, "check_grid_budget",
                        lambda *args: calls.append(args) or check(*args))
    return calls


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 7, 2), ChainSpec("FI", 5, 3, alpha=2), ChainSpec("HS", 4, 4),
])
def test_oracle_work_sums_the_solved_sectors(spec, monkeypatch):
    calls = _spy_on_the_gate(monkeypatch)
    _check_oracle_cost(spec)
    solved = [s for c, s in _brute_sectors(spec).items() if list(c) == sorted(c, reverse=True)]
    assert calls[-1][2] == sum(s.size ** 3 for s in solved)


def test_oracle_peak_stays_within_its_prediction(monkeypatch):
    # HS N=9 m=2: Jacobi on the 126 x 126 block peaks near 5.5 blocks, against 6 predicted
    calls = _spy_on_the_gate(monkeypatch)
    tracemalloc.start()
    try:
        report = oracle_compare(ChainSpec("HS", 9, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.multiplicities_match
    assert peak <= calls[-1][1], (peak, calls[-1][1])


def test_the_oracle_gate_counts_the_written_report(tmp_path, monkeypatch):
    # HS N=4 m=16: 65,536 states; writing the two lists of the report peaks
    # near 0.9 of the prediction, and at about 4 times the spectra alone
    calls = _spy_on_the_gate(monkeypatch)
    tracemalloc.start()
    try:
        assert main(["oracle", "--family", "hs", "--N", "4", "--m", "16",
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= calls[-1][1], (peak, calls[-1][1])


def test_oracle_holds_sector_blocks_not_the_whole_matrix():
    # PF N=5 m=4: the whole H would take 8 MiB; the largest solved block is 60 x 60
    tracemalloc.start()
    try:
        report = oracle_compare(ChainSpec("PF", 5, 4, epsilon=-1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.multiplicities_match
    assert peak <= 1 << 20


def test_oracle_refuses_a_long_single_valued_chain_before_building_it():
    # m = 1 passes the oracle's gate (dim 1) at any N, but its N(N - 1)/2
    # exchange pairs would take minutes at N = 3000: the motif side refuses first
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            oracle_compare(ChainSpec("HS", 3000, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 12])
def test_jacobi_matches_eigvalsh(dim):
    # odd dims run padded with one decoupled zero row
    a = np.random.default_rng(dim).normal(size=(dim, dim))
    sym = a + a.T
    assert np.abs(jacobi_eigenvalues(sym) - np.linalg.eigvalsh(sym)).max() < 1e-12


def test_jacobi_with_exact_zero_pivots():
    # two decoupled blocks and a repeated diagonal: most pairs start at a_pq = 0,
    # and the coupled pairs have a_qq - a_pp = 0
    block = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    sym = np.zeros((7, 7))
    sym[:3, :3] = block
    sym[3:6, 3:6] = -block
    sym[6, 6] = 1.0
    assert np.abs(jacobi_eigenvalues(sym) - np.linalg.eigvalsh(sym)).max() < 1e-14


@pytest.mark.parametrize("pivot", [1e-300, 1e-10])
def test_jacobi_takes_a_tiny_pivot_against_a_huge_gap_without_warning(pivot):
    # at 1e-10 the off-norm is above JACOBI_OFF_TOL, so the pivot must be
    # rotated away although (a_qq - a_pp) / (2 a_pq) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = jacobi_eigenvalues(np.array([[1e300, pivot], [pivot, -1e300]]))
    assert values.tolist() == [-1e300, 1e300]


@pytest.mark.parametrize("entries", [
    [[math.nan]],
    [[math.inf, 0.0], [0.0, 1.0]],
    [[1.0, math.inf], [math.inf, 1.0]],
])
def test_jacobi_rejects_non_finite_entries(entries):
    with pytest.raises(ValidationError, match="finite"):
        jacobi_eigenvalues(np.array(entries))


def test_jacobi_counts_an_undecidable_convergence_test_as_not_converged(monkeypatch):
    # every comparison with NaN is False, so only "not off < tol" fails closed
    monkeypatch.setattr(hschain.hamiltonian, "JACOBI_OFF_TOL", math.nan)
    with pytest.raises(ConvergenceError, match="exhausted"):
        jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))


@pytest.mark.parametrize("spec, solved", [
    (ChainSpec("HS", 7, 2), {(7, 0): 1, (6, 1): 7, (5, 2): 21, (4, 3): 35}),
    (ChainSpec("FI", 5, 3, alpha=2),
     {(5, 0, 0): 1, (4, 1, 0): 5, (3, 2, 0): 10, (3, 1, 1): 20, (2, 2, 1): 30}),
])
def test_weight_sectors_partition_the_basis_by_colour_counts(spec, solved):
    sectors = _solved_sectors(spec)
    assert {counts: dim for counts, _, dim in sectors} == solved
    everyone = _brute_sectors(spec)
    for counts, copies, dim in sectors:
        assert everyone[counts].size == dim
        assert copies == sum(sorted(c, reverse=True) == list(counts) for c in everyone)
    assert sum(copies * dim for _, copies, dim in sectors) == spec.n_states
    assert sum(copies for _, copies, _ in sectors) == len(everyone) == math.comb(
        spec.n_spins + spec.m - 1, spec.m - 1)


@pytest.mark.parametrize("spec, unsorted", [
    (ChainSpec("HS", 7, 2), (2, 5)),
    (ChainSpec("FI", 5, 3, -1, alpha=2), (1, 1, 3)),
])
def test_unsorted_sector_has_the_spectrum_of_its_sorted_twin(spec, unsorted):
    h = build_hamiltonian(spec).matrix
    sectors = _brute_sectors(spec)
    twin = tuple(sorted(unsorted, reverse=True))
    own, other = (jacobi_eigenvalues(h[np.ix_(sectors[c], sectors[c])]) for c in (unsorted, twin))
    assert own.size == other.size > 1
    assert np.abs(own - other).max() < 1e-12


def test_entry_outside_its_weight_sector_trips_the_check():
    # states 0 (all colour 0) and 1 (one spin of colour 1) lie in different
    # sectors: exchanging the first and last spins takes state 1 to state 8
    spec = ChainSpec("HS", 4, 2)
    with pytest.raises(ValidationError, match="exchanging spins 0 and 3 leaves the given states"):
        _block(spec, np.array([0, 1]), exchange_coefficients(spec))


def test_solved_sectors_share_the_whole_matrix_off_norm_bound(monkeypatch):
    # each solved block reaches JACOBI_OFF_TOL / k with k**2 >= the number of
    # sectors, so the assembled block-diagonal matrix stays below JACOBI_OFF_TOL
    spec = ChainSpec("FI", 5, 3, alpha=2)
    sectors = _brute_sectors(spec)
    h = build_hamiltonian(spec).matrix
    seen = []
    solve = hschain.hamiltonian.jacobi_eigenvalues
    monkeypatch.setattr(hschain.hamiltonian, "jacobi_eigenvalues",
                        lambda a: seen.append(a) or solve(a))
    _sector_eigenvalues(spec)
    solved = [sectors[counts] for counts, _, _ in _solved_sectors(spec)]
    assert len(seen) == len(solved) == 5
    k = 8.0  # 8**2 >= 21 sectors
    assert len(sectors) == 21
    for a, s in zip(seen, solved):
        assert np.array_equal(a, k * h[np.ix_(s, s)])


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


@pytest.mark.parametrize("spec", [
    ChainSpec("FI", 5, 3, alpha=2),
    ChainSpec("HS", 8, 2, epsilon=-1),
    ChainSpec("HS", 4, 4),
])
def test_oracle_agreement_beyond_two_colours_and_six_spins(spec):
    report = oracle_compare(spec)
    assert report.affine_deviation < 1e-8
    assert report.multiplicities_match
    reference = np.linalg.eigvalsh(build_hamiltonian(spec).matrix)
    assert np.abs(report.eigenvalues - reference).max() < 1e-10


def test_oracle_report_serializes():
    payload = oracle_compare(ChainSpec("PF", 3, 2)).to_json_dict()
    assert payload["spec"]["family"] == "PF"
    assert len(payload["eigenvalues"]) == 8
    assert sum(payload["motif_multiplicities"]) == 8


def _loop_multiplicity_pattern(values, tol):
    """The cluster sizes, one gap at a time."""
    sizes = [1]
    for gap in np.diff(values):
        if gap > tol:
            sizes.append(1)
        else:
            sizes[-1] += 1
    return tuple(sizes)


@pytest.mark.parametrize("sizes", [(1,), (5,), (1, 1, 1), (3, 1, 4, 1, 5), (1, 200, 2, 1)])
def test_multiplicity_pattern_equals_the_gap_loop(sizes):
    # clusters of values 1e-13 apart, the clusters 1.0 to 1.5 apart
    rng = np.random.default_rng(len(sizes))
    centres = np.cumsum(rng.uniform(1.0, 1.5, len(sizes)))
    values = np.sort(np.concatenate([c + 1e-13 * np.arange(k) for c, k in zip(centres, sizes)]))
    pattern = _multiplicity_pattern(values, 1e-9)
    assert pattern == _loop_multiplicity_pattern(values, 1e-9) == sizes
    assert all(type(k) is int for k in pattern)


def test_expanded_density_repeats_every_level_by_its_degeneracy():
    from hschain.density import density_dp

    spec = ChainSpec("FI", 6, 3, alpha=Fraction(5, 3))
    density = density_dp(spec)
    report = oracle_compare(spec)
    reference = [float(density.energy(e)) for e, d in density.items() for _ in range(d)]
    assert report.motif_values.tolist() == reference
    assert report.motif_multiplicities == density.degeneracies
