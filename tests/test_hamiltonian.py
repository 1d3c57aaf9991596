"""Dense Hamiltonians, the Householder and Sturm eigensolver, and the spectrum oracle."""

import math
import time
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
    _check_oracle_cost,
    _multiplicity_pattern,
    _sector_eigenvalues,
    _sector_group,
    _sector_states,
    _solved_sectors,
    _symmetry_blocks,
    exchange_coefficients,
)


def _whole(spec):
    """The Hamiltonian on the whole m**N basis."""
    return build_hamiltonian(spec, np.arange(spec.n_states), exchange_coefficients(spec)).matrix


def _brute_sectors(spec):
    """Ascending basis indices of every weight sector, keyed by the number
    of spins of each colour, read off the digits of every basis index."""
    digits = np.arange(spec.n_states)[:, None] // spec.m ** np.arange(spec.n_spins) % spec.m
    sectors = {}
    for state, row in enumerate(digits):
        sectors.setdefault(tuple(np.bincount(row, minlength=spec.m).tolist()), []).append(state)
    return {counts: np.array(states) for counts, states in sectors.items()}


def test_circle_sites_are_uniform_angles():
    sites = chain_sites(ChainSpec("HS", 4, 2))
    assert np.allclose(sites, [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])


def test_two_hermite_zeros():
    sites = chain_sites(ChainSpec("PF", 2, 2))
    root = 1 / math.sqrt(2)
    assert np.allclose(sites, [-root, root], atol=1e-14)


def test_hermite_zeros_are_symmetric():
    xi = chain_sites(ChainSpec("PF", 7, 2))
    assert np.allclose(xi, -xi[::-1], atol=1e-13)
    assert np.all(np.diff(xi) > 0)


def test_two_laguerre_sites():
    sites = chain_sites(ChainSpec("FI", 2, 2, alpha=1))
    expected = [0.5 * math.log(2 - math.sqrt(2)), 0.5 * math.log(2 + math.sqrt(2))]
    assert np.allclose(sites, expected, atol=1e-13)


@pytest.mark.parametrize("spec", [
    ChainSpec("PF", 8, 2),
    ChainSpec("FI", 8, 2, alpha=Fraction(3, 2)),
    ChainSpec("FI", 8, 2, alpha=Fraction(1, 2)),
    # unscaled, the recurrence overflowed from N = 800 (PF) and 500 (FI alpha = 2)
    ChainSpec("PF", 1000, 2),
    ChainSpec("FI", 1000, 2, alpha=2),
])
def test_zero_finding_residuals_stay_small(spec):
    # chain_sites refuses a residual above ZERO_RESIDUAL_TOL = 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sites = chain_sites(spec)
    assert np.isfinite(sites).all() and np.all(np.diff(sites) > 0)


def test_site_cap():
    # the sites have no size cap of their own; at N = 12, the largest m = 2
    # chain under the dense cap, the zeros still converge: chain_sites
    # refuses a residual above ZERO_RESIDUAL_TOL = 1e-10
    for spec in (ChainSpec("PF", 12, 2), ChainSpec("FI", 12, 2, alpha=Fraction(3, 2))):
        sites = chain_sites(spec)
        assert np.isfinite(sites).all() and np.all(np.diff(sites) > 0)


def test_a_nan_residual_is_refused(monkeypatch):
    monkeypatch.setattr(hschain.hamiltonian, "_orthopoly_zeros",
                        lambda diag, offdiag: (np.zeros(diag.size), math.nan))
    with pytest.raises(ConvergenceError):
        chain_sites(ChainSpec("PF", 8, 2))


def test_exchange_strengths_are_positive_upper_triangle():
    coef = exchange_coefficients(ChainSpec("FI", 5, 2, alpha=2))
    upper = np.triu_indices(5, 1)
    assert np.all(coef[upper] > 0)
    assert np.all(coef[np.tril_indices(5)] == 0)


def test_two_spin_chain_by_hand():
    # sites pi/2 and pi, so the single pair strength is 1/2
    h = _whole(ChainSpec("HS", 2, 2))
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.array_equal(h, expected)
    assert np.allclose(jacobi_eigenvalues(h), [0, 0, 0, 1])
    anti = _whole(ChainSpec("HS", 2, 2, epsilon=-1))
    assert np.allclose(jacobi_eigenvalues(anti), [0, 1, 1, 1])


def test_hamiltonian_is_exactly_symmetric():
    h = _whole(ChainSpec("FI", 4, 3, alpha=Fraction(3, 2)))
    assert np.array_equal(h, h.T)


def test_aligned_states_are_annihilated():
    spec = ChainSpec("PF", 4, 3)
    h = _whole(spec)
    dim = spec.n_states
    for value in range(3):  # all spins equal to the same value
        index = value * (dim - 1) // 2
        assert np.abs(h[:, index]).max() == 0.0


def test_both_signs_sum_to_a_constant():
    spec = ChainSpec("HS", 3, 2)
    total = 2.0 * exchange_coefficients(spec).sum()
    h = _whole(spec) + _whole(replace(spec, epsilon=-1))
    assert np.allclose(h, total * np.eye(spec.n_states), atol=1e-12)


def test_trace_counts_misaligned_pairs():
    spec = ChainSpec("PF", 4, 2)
    h = _whole(spec)
    weight = exchange_coefficients(spec).sum()
    dim = spec.n_states
    assert np.trace(h) == pytest.approx(weight * (dim - dim // 2), rel=1e-12)


def test_dense_cap():
    # 2**14 states: H with a copy of it would take 2 x 8 x 16384**2 bytes, 4 GiB
    spec = ChainSpec("HS", 14, 2)
    with pytest.raises(CapacityError, match=r"dense H of 16384 states .* over the budget"):
        build_hamiltonian(spec, np.arange(spec.n_states), exchange_coefficients(spec))


@pytest.mark.parametrize("spec, refusal", [
    (ChainSpec("HS", 12, 2), None),  # 1.13e8 units of work, 1.02e8 to solve its momentum blocks
    (ChainSpec("FI", 7, 3, alpha=2), None),
    (ChainSpec("PF", 14, 2), "over the ceiling"),  # 5.14e10 units
    (ChainSpec("HS", 5, 40), "over the budget"),  # 5 x 8 x 40**5 bytes: 4.1 GB of spectra
    (ChainSpec("HS", 7, 4), None),  # its whole H would need 2 x 8 x 16384**2 bytes
    (ChainSpec("HS", 5, 8), None),  # its whole H would need 2 x 8 x 32768**2 bytes
    # 5 x 8 x 31**5 bytes: 1.15 GB of spectra; the report is written from them a piece at a time
    (ChainSpec("HS", 5, 31), "over the budget"),
    # m**N has 4,516 digits, past the 4,300 that Python converts to text
    (ChainSpec("HS", 15000, 2), r"m\*\*N = 2\*\*15000 states .* over the budget"),
    (ChainSpec("HS", 13, 2), None),  # 3.83e8 units
    (ChainSpec("HS", 14, 2), None),  # 2.32e9 units
    (ChainSpec("HS", 5, 24), None),  # 319 MB of spectra
    (ChainSpec("HS", 5, 25), None),  # 391 MB of spectra
    (ChainSpec("HS", 5, 30), None),  # 972 MB of spectra
    (ChainSpec("PF", 7, 5), None),  # 4.89e8 units, most to solve its swap blocks
    (ChainSpec("FI", 7, 6, alpha=2), None),  # 1.89e9 units
    (ChainSpec("PF", 8, 5), "over the ceiling"),  # 2.46e10 units
    (ChainSpec("HS", 15, 2), None),  # 9.75e9 units
    (ChainSpec("PF", 7, 7), None),  # 4.70e9 units
    (ChainSpec("HS", 7, 7), None),  # 1.31e10 units
    # 2.56e9 units, 2.27e9 of them to find its 3,000 sites, and 288 MB of couplings
    (ChainSpec("PF", 3000, 1), None),
    (ChainSpec("PF", 3500, 1), None),  # 3.48e9 units and 392 MB of couplings
])
def test_oracle_cost_prediction(spec, refusal):
    if refusal is None:
        _check_oracle_cost(spec)
    else:
        with pytest.raises(CapacityError, match=refusal):
            _check_oracle_cost(spec)


def test_a_huge_chain_is_refused_without_forming_its_state_count():
    # 2**100000000 took 0.8 s and a 46.7 MB peak to form: the dispersion's gate
    # refuses the chain before the oracle's
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="dispersion of 99999999 bonds"):
            oracle_compare(ChainSpec("HS", 10 ** 8, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _spy_on_the_gate(monkeypatch):
    calls = []
    check = hschain.hamiltonian.check_grid_budget
    monkeypatch.setattr(hschain.hamiltonian, "check_grid_budget",
                        lambda *args: calls.append(args) or check(*args))
    return calls


def _oracle_prediction(calls):
    """The bytes of the oracle's own prediction, of the four-argument
    "dense oracle ..." call; each block's gate runs after it."""
    (_, nbytes, _, _), = (c for c in calls if len(c) == 4 and c[0].startswith("dense oracle"))
    return nbytes


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 7, 2), ChainSpec("FI", 5, 3, alpha=2), ChainSpec("HS", 4, 4),
    ChainSpec("PF", 6, 2),
])
def test_oracle_work_sums_the_solved_sectors(spec, monkeypatch):
    # the work counts 2 x 18 steps x 7 points x N**2 for the multisection
    # that finds the PF and FI sites (the HS sites are closed form), 64 per
    # state for each exchange pair that builds the solved sectors, then
    # size**3 for the Householder reduction and 2 x 18 x 7 x size**2 for the
    # Sturm multisection, over the blocks built from the solved sectors' states
    h = _whole(spec)
    calls = _spy_on_the_gate(monkeypatch)
    _check_oracle_cost(spec)
    solved = {c: s for c, s in _brute_sectors(spec).items() if list(c) == sorted(c, reverse=True)}
    sizes = []
    for c, s in solved.items():
        group = _sector_group(spec, c, s.size)
        sizes += [b.shape[0] for b in _symmetry_blocks(h[np.ix_(s, s)], group.places(s),
                                                        group.characters, group.real)]
    assert sum(sizes) == sum(s.size for s in solved.values())
    n = spec.n_spins
    sites = 0 if spec.family == "HS" else 252 * n * n
    build = 64 * n * (n - 1) // 2 * sum(sizes)
    assert calls[-1][2] == sites + build + sum(size ** 3 + 252 * size ** 2 for size in sizes)


def test_oracle_peak_stays_within_its_prediction(monkeypatch):
    # HS N=9 and 10 m=2 and PF N=8 m=2: the solved blocks with the largest
    # sector matrix or the solver's copy of the largest stack of blocks, its
    # outer products and its lanes; PF N=1000 m=1: the 4 x 8 x N**2 bytes,
    # 32.0 MB, of exchange_coefficients
    for spec in (ChainSpec("HS", 9, 2), ChainSpec("HS", 10, 2), ChainSpec("PF", 8, 2),
                 ChainSpec("PF", 1000, 1)):
        calls = _spy_on_the_gate(monkeypatch)
        tracemalloc.start()
        try:
            report = oracle_compare(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.multiplicities_match
        assert peak <= _oracle_prediction(calls), (spec, peak, _oracle_prediction(calls))


def test_the_oracle_gate_counts_the_written_report(tmp_path, monkeypatch):
    # HS N=4 m=16: 65,536 states; writing the two spectra of the report
    # from slices of their arrays peaks near 0.77 of the prediction, at 36
    # bytes a state
    calls = _spy_on_the_gate(monkeypatch)
    tracemalloc.start()
    try:
        assert main(["oracle", "--family", "hs", "--N", "4", "--m", "16",
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _oracle_prediction(calls), (peak, _oracle_prediction(calls))


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
    # m = 1 has one state: the oracle's gate counts HS N=3000 m=1 at 64
    # units for each of its N(N - 1)/2 exchange pairs, 2.88e8, and none for
    # its closed-form sites, with 4 x 8 x N**2 bytes, 288 MB, of couplings,
    # inside both limits; the motif side refuses it first, for its
    # N(N**2 - 1)/6 energy cells
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            oracle_compare(ChainSpec("HS", 3000, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_counts_the_exchange_pairs_of_a_single_valued_chain():
    # PF N=6000 m=1: one state, but 18 M exchange pairs whose coupling
    # arrays take 4 x 8 x N**2 bytes, 1.15 GB, over the budget; refused
    # before a site is found
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="over the budget"):
        _check_oracle_cost(ChainSpec("PF", 6000, 1))
    assert time.perf_counter() - start < 1.0


def test_jacobi_solves_known_matrices():
    assert np.allclose(jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1, 3])
    assert np.allclose(jacobi_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])
    assert jacobi_eigenvalues(np.array([[5.0]])) == [5.0]
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12))
    sym = a + a.T
    assert np.allclose(jacobi_eigenvalues(sym), np.linalg.eigvalsh(sym), atol=1e-9)


def test_jacobi_of_an_empty_list_is_an_empty_list():
    assert jacobi_eigenvalues([]) == []


def test_jacobi_rejects_bad_input():
    with pytest.raises(ValidationError):
        jacobi_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        jacobi_eigenvalues(np.zeros((2, 2, 3)))
    with pytest.raises(ValidationError):
        jacobi_eigenvalues(np.zeros((1, 2, 2, 2)))
    with pytest.raises(ValidationError):
        jacobi_eigenvalues(np.zeros((2, 2, 2)))
    with pytest.raises(ValidationError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _symmetric_stack(count, dim, seed=0):
    a = np.random.default_rng(seed).normal(size=(count, dim, dim))
    return a + a.swapaxes(1, 2)


@pytest.mark.parametrize("count, dim", [(1, 1), (3, 1), (2, 2), (4, 5), (3, 12)])
def test_a_stack_matches_eigvalsh_member_by_member(count, dim):
    stack = _symmetric_stack(count, dim)
    values = jacobi_eigenvalues(list(stack))
    assert [row.shape for row in values] == [(dim,)] * count
    for member, row in zip(stack, values):
        assert np.abs(row - np.linalg.eigvalsh(member)).max() < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 7, 12])
def test_a_one_member_stack_is_bitwise_the_matrix_alone(dim):
    matrix = _symmetric_stack(1, dim, seed=dim)[0]
    assert np.array_equal(jacobi_eigenvalues([matrix])[0], jacobi_eigenvalues(matrix))


@pytest.mark.parametrize("entry, message", [
    (math.nan, "finite"), (math.inf, "finite"), (0.5, "exactly symmetric"),
])
def test_a_stack_with_one_bad_member_is_refused(entry, message):
    stack = _symmetric_stack(3, 4)
    stack[1, 0, 2] = entry
    with pytest.raises(ValidationError, match=message):
        jacobi_eigenvalues(list(stack))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 12])
def test_jacobi_matches_eigvalsh(dim):
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
    # 1e-300 squares to 0 and splits the matrix into two rows; 1e-10 couples
    # them, and the Sturm pivots divide 1e-20 by 2e300
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


def _agrees_with_eigvalsh(values, matrix):
    reference = np.linalg.eigvalsh(matrix)
    scale = np.abs(reference).max(initial=0.0)
    return np.abs(values - reference).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("dim", [7, 33, 60])
def test_random_blocks_agree_with_eigvalsh_singly_stacked_and_mixed(dim):
    # within 1e-12 times the spectral norm, one block, a stack of four and a
    # list that mixes the stack with blocks of every size up to 60
    stack = _symmetric_stack(4, dim, seed=dim)
    assert _agrees_with_eigvalsh(jacobi_eigenvalues(stack[0]), stack[0])
    for member, row in zip(stack, jacobi_eigenvalues(list(stack))):
        assert _agrees_with_eigvalsh(row, member)
    mixed = [_symmetric_stack(1, n, seed=100 + n)[0] for n in range(1, 61, 7)] + list(stack)
    spectra = jacobi_eigenvalues(mixed)
    assert isinstance(spectra, list) and len(spectra) == len(mixed)
    for block, values in zip(mixed, spectra):
        assert values.shape == (len(block),)
        assert _agrees_with_eigvalsh(values, block)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_huge_and_tiny_entries_neither_overflow_nor_vanish(scale):
    # the squares of 1e200 would overflow and those of 1e-200 square to 0
    coupled = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = jacobi_eigenvalues(coupled)
    assert np.abs(values / scale - np.linalg.eigvalsh(coupled / scale)).max() < 1e-14


@pytest.mark.parametrize("matrix", [np.zeros((1, 1)), np.zeros((5, 5)), list(np.zeros((3, 5, 5)))])
def test_all_zero_matrices_end_at_zero(matrix):
    # a stop relative to each block's own scale would never end on these
    assert np.array_equal(jacobi_eigenvalues(matrix), np.zeros(np.shape(matrix)[:-1]))


def test_zero_and_diagonal_blocks_in_a_mixed_list_end_bit_for_bit():
    # every coupling of a zero or diagonal block is 0, so each of its rows is a
    # run of one, its own eigenvalue
    blocks = [np.zeros((1, 1)), np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros((4, 4)),
              np.diag([5.0, -2.0, 0.0, 5.0])]
    zero, pair, zeros, diagonal = jacobi_eigenvalues(blocks)
    assert zero.tolist() == [0.0] and zeros.tolist() == [0.0] * 4
    assert np.abs(pair - [1.0, 3.0]).max() < 1e-15
    assert diagonal.tolist() == [-2.0, 0.0, 5.0, 5.0]


@pytest.mark.parametrize("dim", [2, 6, 13])
def test_exactly_repeated_eigenvalues(dim):
    # all ones: dim once and 0 dim - 1 times; a rotated diagonal with every
    # value repeated
    ones = np.ones((dim, dim))
    values = jacobi_eigenvalues(ones)
    assert np.abs(values - np.r_[np.zeros(dim - 1), dim]).max() <= 1e-12 * dim
    q, _ = np.linalg.qr(np.random.default_rng(dim).normal(size=(2 * dim, 2 * dim)))
    rotated = q @ np.diag(np.repeat(np.arange(dim, dtype=float), 2)) @ q.T
    rotated = (rotated + rotated.T) / 2
    values = jacobi_eigenvalues(rotated)
    assert _agrees_with_eigvalsh(values, rotated)
    assert _multiplicity_pattern(values, 1e-9) == (2,) * dim


@pytest.mark.parametrize("blocks, message", [
    ([np.eye(2), np.zeros((2, 3))], "square"),
    ([np.eye(2), np.zeros(3)], "square"),
    ([np.array([[0.0, 1.0], [0.0, 0.0]])], "exactly symmetric"),
    ((np.eye(2), np.array([[math.nan]])), "finite"),
])
def test_a_list_with_one_bad_block_is_refused(blocks, message):
    with pytest.raises(ValidationError, match=message):
        jacobi_eigenvalues(blocks)


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
    h = _whole(spec)
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
        build_hamiltonian(spec, np.array([0, 1]), exchange_coefficients(spec))


def _per_pair_hamiltonian(spec, states, coef):
    """H on ascending `states` built one exchange pair at a time, in pair
    order, each pair's diagonal shift before its exchange: the builder as it
    was before it took the pairs in chunks."""
    n, m, size = spec.n_spins, spec.m, states.size
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
    return h


@pytest.mark.parametrize("spec, whole, chunks", [
    (ChainSpec("HS", 7, 2), True, (1, 3)),
    (ChainSpec("HS", 13, 2), False, (1, 3)),  # sector (7, 6) has 1,716 states, 38 pairs a chunk
    (ChainSpec("HS", 6, 3, -1), True, (1, 3)),
    (ChainSpec("PF", 8, 2, -1), True, (1, 3)),
    (ChainSpec("PF", 7, 4), False, (1, 3)),
    (ChainSpec("FI", 5, 3, alpha=2), True, (1, 3)),
    (ChainSpec("FI", 6, 2, -1, alpha="3/2"), True, (1, 3)),
    # one state, the whole basis, and 319,600 pairs: 5 chunks of up to 65,536
    # pairs, then 33 of up to 9,973 (a chunk a pair would take 20 s)
    (ChainSpec("PF", 800, 1), False, (9973,)),
])
def test_the_build_equals_the_per_pair_loop_bit_for_bit(spec, whole, chunks, monkeypatch):
    # every solved sector, and the whole basis where it is small, with the
    # chunks as they are and then holding one pair and three pairs, so that
    # chunk boundaries fall inside the pair list
    coef = exchange_coefficients(spec)
    bases = [_sector_states(spec, counts) for counts, _, _ in _solved_sectors(spec)]
    if whole:
        bases.append(np.arange(spec.n_states))
    for states in bases:
        reference = _per_pair_hamiltonian(spec, states, coef)
        for pairs in (None, *chunks):
            if pairs:
                monkeypatch.setattr(hschain.hamiltonian, "_CHUNK_BYTES", 8 * pairs * states.size)
            h = build_hamiltonian(spec, states, coef).matrix
            assert h.shape == reference.shape and h.tobytes() == reference.tobytes(), (
                spec, states.size, pairs)
            monkeypatch.undo()


@pytest.mark.parametrize("pairs", [None, 1, 3])
def test_the_first_pair_to_leave_the_states_is_named_in_any_chunking(pairs, monkeypatch):
    # exchanges (0, 1) and (0, 2) keep states 0 and 1, and (0, 3), the third
    # pair, is the first to leave them: the third of one chunk of all six
    # pairs, alone in the third chunk, or the last of the first of two
    spec = ChainSpec("HS", 4, 2)
    if pairs:
        monkeypatch.setattr(hschain.hamiltonian, "_CHUNK_BYTES", 8 * pairs * 2)
    with pytest.raises(ValidationError, match="exchanging spins 0 and 3 leaves the given states"):
        build_hamiltonian(spec, np.array([0, 1]), exchange_coefficients(spec))


def test_a_long_single_valued_oracle_runs_in_seconds():
    # PF N=800 m=1: one state and 319,600 exchange pairs, which took about
    # 4 s to build one pair at a time
    start = time.perf_counter()
    report = oracle_compare(ChainSpec("PF", 800, 1))
    assert time.perf_counter() - start < 2.0
    assert report.eigenvalues.size == 1 and report.multiplicities_match


@pytest.mark.parametrize("spec", [
    pytest.param(ChainSpec(family, n, m, epsilon, alpha=2 if family == "FI" else None),
                 id=f"{family}-N{n}-m{m}-{'ferro' if epsilon == 1 else 'anti'}")
    for family in ("HS", "PF", "FI") for n, m in ((6, 2), (5, 3)) for epsilon in (1, -1)
])
def test_solved_sectors_share_the_whole_matrix_off_norm_bound(spec, monkeypatch):
    # one solver call for the whole oracle run, whose floor is set by the largest
    # Gershgorin bound of all its blocks, so every sector is solved to the whole
    # matrix's accuracy; each block, unscaled, is bitwise a block of its
    # submatrix of the whole basis
    sectors = _brute_sectors(spec)
    h = _whole(spec)
    seen = []
    solve = hschain.hamiltonian.jacobi_eigenvalues
    monkeypatch.setattr(hschain.hamiltonian, "jacobi_eigenvalues",
                        lambda a: seen.append(a) or solve(a))
    values = _sector_eigenvalues(spec)
    blocks = []
    for counts, _, _ in _solved_sectors(spec):
        s = sectors[counts]
        group = _sector_group(spec, counts, s.size)
        blocks += _symmetry_blocks(h[np.ix_(s, s)], group.places(s), group.characters, group.real)
    assert len(sectors) == math.comb(spec.n_spins + spec.m - 1, spec.m - 1)
    (given,) = seen
    assert isinstance(given, list) and len(given) == len(blocks)
    for member, b in zip(given, blocks):
        assert np.array_equal(member, b)
    reference = np.linalg.eigvalsh(h)
    assert np.abs(values - reference).max() <= 1e-12 * np.abs(reference).max()


def _check_the_blocks_hold_the_sector_spectrum(family, n, m):
    # every weight sector, sorted counts or not, and both signs: the blocks of
    # the sector's group are exactly symmetric, a complex character's holds the
    # spectra of it and of its conjugate, and together their spectra are the
    # sector's
    for epsilon in (1, -1):
        spec = ChainSpec(family, n, m, epsilon, alpha=2 if family == "FI" else None)
        coef = exchange_coefficients(spec)
        for counts, states in _brute_sectors(spec).items():
            h = build_hamiltonian(spec, states, coef).matrix
            group = _sector_group(spec, counts, states.size)
            blocks = _symmetry_blocks(h, group.places(states), group.characters, group.real)
            assert all(np.array_equal(b, b.T) for b in blocks)
            values = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
            assert np.abs(values - np.linalg.eigvalsh(h)).max() < 1e-10


@pytest.mark.parametrize("n, m", [(n, m) for m in (1, 2, 3) for n in range(2, 9)])
def test_momentum_blocks_hold_the_sector_spectrum(n, m):
    _check_the_blocks_hold_the_sector_spectrum("HS", n, m)


@pytest.mark.parametrize("spec", [ChainSpec("HS", n, 2) for n in range(2, 13)]
                         + [ChainSpec("HS", n, 3) for n in range(2, 8)]
                         + [ChainSpec("PF", n, m) for n, m in ((2, 2), (4, 2), (6, 2), (8, 2),
                                                                (5, 3), (6, 3), (4, 4), (6, 4))]
                         + [ChainSpec("FI", n, m, alpha=2)
                            for n, m in ((4, 2), (5, 3), (4, 4), (5, 5))]
                         # colours past the spins, and one colour whose sector every rotation keeps
                         + [ChainSpec("HS", 5, 16), ChainSpec("HS", 30, 1)])
def test_the_gate_predicts_the_block_sizes_built(spec):
    coef = exchange_coefficients(spec)
    for counts, _, sizes, group in _check_oracle_cost(spec):
        states = _sector_states(spec, counts)
        blocks = _symmetry_blocks(build_hamiltonian(spec, states, coef).matrix,
                                  group.places(states), group.characters, group.real)
        assert [b.shape[0] for b in blocks] == sizes


def _momentum_block_sizes(spec, states):
    """The sizes of the nonempty momentum blocks p = 0, ..., N // 2 of an HS
    sector, counted from its listed states: an orbit of the rotation, of L
    states, is in block p when p L is a multiple of N, and a block of
    0 < p < N/2 holds p and -p, twice its orbits."""
    n, m = spec.n_spins, spec.m
    turns = [states]
    for _ in range(n - 1):
        turns.append(turns[-1] % m ** (n - 1) * m + turns[-1] // m ** (n - 1))
    turns = np.stack(turns)
    orbits = turns[:, turns.min(axis=0) == states].T.tolist()
    periods = np.array([len(set(orbit)) for orbit in orbits])
    sizes = [int((p * periods % n == 0).sum()) * (1 if 2 * p % n == 0 else 2)
             for p in range(n // 2 + 1)]
    return [size for size in sizes if size]


@pytest.mark.parametrize("spec", [ChainSpec("HS", 14, 2), ChainSpec("HS", 5, 30)])
def test_the_gate_predicts_the_momentum_orbit_count_without_building_h(spec, monkeypatch):
    # HS N=14 m=2, whose sector matrices take seconds to solve; only the states
    # are listed here
    monkeypatch.setattr(hschain.hamiltonian, "build_hamiltonian", None)
    for counts, _, sizes, _ in _check_oracle_cost(spec):
        assert sizes == _momentum_block_sizes(spec, _sector_states(spec, counts)), counts


@pytest.mark.parametrize("family", ["PF", "FI"])
@pytest.mark.parametrize("n, m", [(n, m) for m in (1, 2, 3, 4) for n in range(2, 9)
                                  if m ** n <= 4096])
def test_swap_blocks_hold_the_sector_spectrum(family, n, m):
    # PF and FI sectors, split by the swaps of colours with equal counts
    _check_the_blocks_hold_the_sector_spectrum(family, n, m)


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
    # two colour swaps, 0 <-> 1 and 2 <-> 3: sector (1, 1, 1, 1) splits into 4 blocks of 6
    ChainSpec("FI", 4, 4, alpha=2),
])
def test_oracle_agreement_beyond_two_colours_and_six_spins(spec):
    report = oracle_compare(spec)
    assert report.affine_deviation < 1e-8
    assert report.multiplicities_match
    reference = np.linalg.eigvalsh(_whole(spec))
    assert np.abs(report.eigenvalues - reference).max() < 1e-10


def test_oracle_agreement_at_eleven_spins():
    # HS N=11 m=2: 2,048 states, whose largest weight sector (462 states) splits
    # into momentum blocks of 42 and 84
    report = oracle_compare(ChainSpec("HS", 11, 2))
    assert report.multiplicities_match
    assert report.affine_deviation < 1e-8


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
    reference = [e / density.energy_scale for e, d in density.items() for _ in range(d)]
    assert report.motif_values.tolist() == reference
    assert report.motif_multiplicities == density.degeneracies
