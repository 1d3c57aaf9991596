"""Acceptance gate: one test per release criterion, each printing a single
PASS line with its key numbers (visible with pytest -s).

The ten checks cover, in order: exact moment identities, frozen spot
values, agreement of all three density backends, the spectral suite of the
bond transfer matrix, the two routes to the characteristic function, the
Gaussian limit of the level density, boundedness of the scaled large-N
estimates, the dense-Hamiltonian oracle, level-spacing statistics, and
byte-level determinism of the command-line artifacts.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from hschain import (
    ChainSpec,
    brute_force_density,
    charfn_exact,
    charfn_from_density,
    closed_form_moments,
    composition_density,
    convergence_report,
    empirical_moments,
    ks_distance,
    normalized_spacings,
    oracle_compare,
    unfold,
)
from hschain.cli import main
from hschain.density import density_dp
from hschain.transfer import default_t_grid
from diagnostics import (asymptotic_sweep, column_sum_residual, eigenvalues, eigenvector_matrix,
                         partition_function_at)

FAMILY_GRID = [
    ("HS", None),
    ("PF", None),
    ("FI", Fraction(1)),
    ("FI", Fraction(3, 2)),
    ("FI", Fraction(2)),
]


def test_a01_closed_form_moments_equal_density_moments_exactly():
    start = time.monotonic()
    cases = 0
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3, 4), range(2, 15), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        stats = closed_form_moments(spec)
        observed = empirical_moments(density_dp(spec))
        assert stats.mu == observed.mu, spec
        assert stats.sigma2 == observed.sigma2, spec
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"acceptance 01 moment identities: PASS ({cases} specs exact, {elapsed:.2f}s)")


def test_a02_spot_values_of_density_and_moments():
    pf3 = ChainSpec("PF", 3, 2)
    hs4 = ChainSpec("HS", 4, 2)
    assert dict(density_dp(pf3).items()) == {0: 4, 1: 2, 2: 2}
    assert dict(brute_force_density(pf3).items()) == {0: 4, 1: 2, 2: 2}
    assert dict(density_dp(hs4).items()) == {0: 5, 3: 6, 4: 4, 6: 1}
    assert dict(brute_force_density(hs4).items()) == {0: 5, 3: 6, 4: 4, 6: 1}
    stats = closed_form_moments(pf3)
    assert (stats.mu, stats.sigma2) == (Fraction(3, 4), Fraction(11, 16))
    stats = closed_form_moments(hs4)
    assert (stats.mu, stats.sigma2) == (Fraction(5, 2), Fraction(27, 8))
    print("acceptance 02 spot values: PASS (both frozen tables and moment pairs)")


def test_a03_density_backends_agree():
    start = time.monotonic()
    brute_limit = 10 ** 6
    composed = enumerated = 0
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3, 4), range(2, 19), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        reference = density_dp(spec)
        assert composition_density(spec) == reference, spec
        composed += 1
        if spec.n_states <= brute_limit:
            assert brute_force_density(spec) == reference, spec
            enumerated += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        "acceptance 03 backend equivalence: PASS "
        f"({composed} composition + {enumerated} enumeration checks, {elapsed:.2f}s)"
    )


def test_a04_transfer_matrix_spectral_suite():
    start = time.monotonic()
    rng = np.random.default_rng(12345)
    omega = np.exp(1j * rng.uniform(-np.pi, np.pi, size=10_000))
    worst_lam = worst_recon = worst_total = worst_unit = 0.0
    for m in range(2, 7):
        lam = eigenvalues(omega, m)
        worst_lam = max(worst_lam, float(np.abs(lam).max()))
        u = eigenvector_matrix(omega, m)
        rebuilt = np.einsum("tnk,tk,tlk->tnl", u, lam, u.conj())
        strict_upper = np.triu(np.ones((m, m)), 1)
        direct = (np.ones((m, m)) + (omega ** m - 1.0)[:, None, None] * strict_upper) / m
        worst_recon = max(worst_recon, float(np.abs(rebuilt - direct).max()))
        # the per-column sum collapses onto the last column at the point
        # omega = 1 where all rows coincide; elsewhere only the total over
        # columns is pinned (to m) by unitarity
        worst_unit = max(worst_unit, float(column_sum_residual(1.0, m).max()))
        totals = (np.abs(u.sum(axis=-2)) ** 2).sum(axis=-1)
        worst_total = max(worst_total, float(np.abs(totals - m).max()))
    assert worst_lam <= 1.0 + 1e-12
    assert worst_recon < 1e-12
    assert worst_unit < 1e-12
    assert worst_total < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        "acceptance 04 transfer spectral suite: PASS "
        f"(10000 unimodular points, m = 2..6: |lam| <= 1 + {worst_lam - 1.0:.1e}, "
        f"rebuild {worst_recon:.1e}, column sums {max(worst_unit, worst_total):.1e}, "
        f"{elapsed:.2f}s)"
    )


def test_a05_charfn_product_equals_density_transform():
    start = time.monotonic()
    grid = default_t_grid()
    worst = 0.0
    cases = 0
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3), range(2, 13), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        stats = closed_form_moments(spec)
        density = density_dp(spec)
        gap = np.abs(
            charfn_exact(spec, stats, grid) - charfn_from_density(density, stats, grid)
        ).max()
        worst = max(worst, float(gap))
        cases += 1
    assert worst < 1e-10
    # and the density transform is the centered partition function itself
    for spec in (ChainSpec("HS", 6, 2), ChainSpec("FI", 6, 2, -1, Fraction(3, 2))):
        stats = closed_form_moments(spec)
        density = density_dp(spec)
        series = charfn_from_density(density, stats, grid)
        for k in (3, 120, 200):
            t = grid[k]
            z = partition_function_at(density, np.exp(1j * t / stats.sigma))
            direct = np.exp(-1j * float(stats.mu) / stats.sigma * t) * z / spec.n_states
            assert abs(series[k] - direct) < 1e-10
    elapsed = time.monotonic() - start
    print(f"acceptance 05 charfn consistency: PASS ({cases} specs, max gap {worst:.1e}, {elapsed:.2f}s)")


def test_a06_level_density_approaches_the_gaussian():
    start = time.monotonic()
    sweep = (16, 32, 64, 128, 256, 512, 1024)
    summary = []
    for family, alpha in (("HS", None), ("PF", None), ("FI", Fraction(3, 2))):
        report = convergence_report([ChainSpec(family, n, 2, 1, alpha) for n in sweep])
        d = report.gauss_deviation
        assert d[6] < d[2] < d[0], (family, list(d))
        assert report.asym_slope <= -0.4, (family, report.asym_slope)
        summary.append(f"{family} slope {report.asym_slope:.2f}")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"acceptance 06 gaussian convergence: PASS ({'; '.join(summary)}, {elapsed:.2f}s)")


def test_a07_scaled_large_n_estimates_stay_bounded():
    start = time.monotonic()
    sweep = (16, 32, 64, 128, 256, 512, 1024)
    keys = ("weight_peak", "weight_step", "bond_overlap", "variance_residual")
    checked = 0
    for (family, alpha), m in itertools.product(
        (("HS", None), ("PF", None), ("FI", Fraction(3, 2))), (2, 3)
    ):
        out = asymptotic_sweep(family, m, 1, n_values=sweep, alpha=alpha)
        for key in keys:
            series = out[key]
            ratio = float(series[-1] / series[0])
            assert ratio < 2.0, (family, m, key, ratio)
            checked += 1
    elapsed = time.monotonic() - start
    print(f"acceptance 07 asymptotic estimates: PASS ({checked} bounded sweeps, {elapsed:.2f}s)")


def test_a08_dense_hamiltonian_matches_motif_spectrum():
    start = time.monotonic()
    worst_affine = 0.0
    cases = 0
    for (family, alpha), n, eps in itertools.product(FAMILY_GRID, range(2, 7), (1, -1)):
        report = oracle_compare(ChainSpec(family, n, 2, eps, alpha))
        assert report.affine_deviation < 1e-8, report.spec
        assert report.multiplicities_match, report.spec
        worst_affine = max(worst_affine, report.affine_deviation)
        cases += 1
    for eps in (1, -1):
        report = oracle_compare(ChainSpec("HS", 2, 2, epsilon=eps))
        assert report.direct_deviation < 1e-10
    elapsed = time.monotonic() - start
    print(
        "acceptance 08 oracle agreement: PASS "
        f"({cases} chains, worst affine gap {worst_affine:.1e}, {elapsed:.2f}s)"
    )


def test_a09_level_statistics(tmp_path):
    worst_mean = 0.0
    for family, alpha in FAMILY_GRID:
        spec = ChainSpec(family, 16, 2, 1, alpha)
        spacings = normalized_spacings(
            unfold(density_dp(spec), closed_form_moments(spec))
        )
        worst_mean = max(worst_mean, abs(float(spacings.mean()) - 1.0))
    assert worst_mean < 1e-9
    distances = {}
    for n in (16, 128):
        spec = ChainSpec("HS", n, 2)
        distances[n] = ks_distance(density_dp(spec), closed_form_moments(spec))
    assert distances[128] < distances[16]
    assert main(["spacings", "--family", "hs", "--N", "32", "--m", "2",
                 "--out", str(tmp_path)]) == 0
    header = next(
        line for line in (tmp_path / "spacings.csv").read_text().splitlines()
        if not line.startswith("#")
    )
    assert header == "bin_center,density,poisson_ref,wigner_ref"
    print(
        "acceptance 09 level statistics: PASS "
        f"(spacing mean off by {worst_mean:.1e}, ks {distances[16]:.4f} -> {distances[128]:.5f})"
    )


def test_a10_artifacts_are_byte_deterministic(tmp_path):
    runs = {
        "crosscheck": ["crosscheck", "--max-N", "8"],
        "convergence": ["convergence", "--family", "pf", "--m", "2",
                        "--n-sweep", "16:256:geometric", "--t-points", "81"],
    }
    compared = 0
    for name, args in runs.items():
        first = tmp_path / f"{name}-1"
        second = tmp_path / f"{name}-2"
        for out in (first, second):
            assert main(args + ["--out", str(out)]) == 0
        produced = sorted(p.name for p in first.iterdir())
        assert produced == sorted(p.name for p in second.iterdir())
        for filename in produced:
            assert (first / filename).read_bytes() == (second / filename).read_bytes(), filename
            compared += 1
    print(f"acceptance 10 deterministic artifacts: PASS ({compared} files byte-identical)")
