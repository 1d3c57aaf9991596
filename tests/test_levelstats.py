"""Unfolding, spacing statistics, and the Gaussian goodness-of-fit."""

from fractions import Fraction

import numpy as np
import pytest

from hschain import (
    ChainSpec,
    DensityTable,
    ValidationError,
    closed_form_moments,
    gaussian_cdf,
    ks_distance,
    normalized_spacings,
    spacing_distribution,
    unfold,
)
from hschain.density import LevelMasses, density_dp, level_support
from hschain.levelstats import (
    UnfoldedSpectrum,
    default_spacing_bins,
    poisson_reference,
    wigner_reference,
)
from hschain.moments import SpectrumStats


def test_cdf_midpoint_and_tails():
    assert gaussian_cdf(3.0, 3.0, 2.0) == 0.5
    assert gaussian_cdf(1e9, 0.0, 1.0) == 1.0
    assert gaussian_cdf(-1e9, 0.0, 1.0) == 0.0


def test_cdf_one_width_above_the_mean():
    assert gaussian_cdf(1.0, 0.0, 1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_cdf_mirror_symmetry():
    for e in (0.3, 1.7, 4.2):
        assert gaussian_cdf(2.0 - e, 1.0, 0.7) == pytest.approx(
            1.0 - gaussian_cdf(e, 1.0, 0.7), abs=1e-15
        )


def test_cdf_rejects_nonpositive_width():
    with pytest.raises(ValidationError):
        gaussian_cdf(0.0, 0.0, 0.0)


def test_unfold_three_level_chain():
    spec = ChainSpec("PF", 3, 2)
    eta = unfold(density_dp(spec), closed_form_moments(spec)).eta
    expected = [0.18285614814075662, 0.6184876997235025, 0.934165991988593]
    assert np.allclose(eta, expected, rtol=1e-12, atol=0)


def test_unfold_is_strictly_increasing_inside_the_unit_interval():
    spec = ChainSpec("HS", 8, 2)
    eta = unfold(density_dp(spec), closed_form_moments(spec)).eta
    assert np.all(np.diff(eta) > 0)
    assert 0 < eta[0] and eta[-1] < 1


def test_unfolded_signs_mirror_each_other():
    spec = ChainSpec("FI", 6, 2, alpha=2)
    ferro = unfold(density_dp(spec), closed_form_moments(spec)).eta
    flipped = spec.with_epsilon(-1)
    anti = unfold(density_dp(flipped), closed_form_moments(flipped)).eta
    assert np.allclose(anti, 1.0 - ferro[::-1], atol=1e-13)


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 40, 3),
    ChainSpec("PF", 60, 2, -1),
    ChainSpec("FI", 30, 3, alpha=Fraction(3, 2)),
    ChainSpec("FI", 30, 2, alpha=Fraction(5, 3)),  # a scale whose reciprocal is inexact
])
def test_unfold_equals_the_levelwise_cdf_bit_for_bit(spec):
    stats = closed_form_moments(spec)
    density = density_dp(spec)
    reference = np.array(
        [gaussian_cdf(float(density.energy(e)), stats.mu, stats.sigma) for e in density.levels()]
    )
    assert np.array_equal(unfold(density, stats).eta, reference)
    assert np.array_equal(unfold(level_support(spec), stats).eta, reference)


def test_unfold_needs_three_distinct_levels():
    spec = ChainSpec("PF", 2, 2)
    with pytest.raises(ValidationError):
        unfold(density_dp(spec), closed_form_moments(spec))


def test_spacings_have_unit_mean():
    for spec in (ChainSpec("HS", 12, 2), ChainSpec("PF", 20, 2, -1)):
        s = normalized_spacings(unfold(density_dp(spec), closed_form_moments(spec)))
        assert abs(s.mean() - 1.0) < 1e-12


def test_equal_gaps_normalize_to_ones():
    s = normalized_spacings(UnfoldedSpectrum(np.linspace(0.2, 0.8, 7)))
    assert np.allclose(s, 1.0, atol=1e-12)


def test_two_levels_give_the_single_unit_spacing():
    s = normalized_spacings(UnfoldedSpectrum(np.array([0.3, 0.6])))
    assert s.tolist() == [1.0]


def test_degenerate_unfolded_sequence_is_rejected():
    with pytest.raises(ValidationError):
        normalized_spacings(UnfoldedSpectrum(np.array([0.4, 0.4, 0.4])))
    with pytest.raises(ValidationError):
        normalized_spacings(UnfoldedSpectrum(np.array([0.4])))


def test_histogram_mass_is_one():
    spec = ChainSpec("HS", 24, 2)
    unfolded = unfold(density_dp(spec), closed_form_moments(spec))
    hist = spacing_distribution(unfolded)
    assert hist.mass == pytest.approx(1.0, abs=1e-12)
    # still 1 when some spacings land outside a short bin range
    short = spacing_distribution(unfolded, bins=default_spacing_bins(0.75, 6))
    assert short.mass == pytest.approx(1.0, abs=1e-12)


def test_histogram_carries_both_reference_curves():
    spec = ChainSpec("HS", 20, 2)
    hist = spacing_distribution(unfold(density_dp(spec), closed_form_moments(spec)))
    assert hist.poisson_ref.shape == hist.bin_centers.shape
    assert hist.wigner_ref.shape == hist.bin_centers.shape
    assert np.allclose(hist.poisson_ref, np.exp(-hist.bin_centers))


def test_reference_densities_have_unit_mass_and_right_endpoints():
    s = np.linspace(0.0, 30.0, 30001)
    assert poisson_reference(0.0) == 1.0
    assert wigner_reference(0.0) == 0.0
    assert np.trapezoid(poisson_reference(s), s) == pytest.approx(1.0, abs=1e-6)
    assert np.trapezoid(wigner_reference(s), s) == pytest.approx(1.0, abs=1e-6)


def test_ks_distance_of_a_single_atom_at_the_mean():
    from hschain.moments import SpectrumStats
    from fractions import Fraction

    table = DensityTable.from_counts({0: 1})
    stats = SpectrumStats.from_exact(Fraction(0), Fraction(1))
    assert ks_distance(table, stats) == pytest.approx(0.5)


def test_ks_distance_shrinks_with_chain_length():
    values = {}
    for n in (16, 64):
        spec = ChainSpec("PF", n, 2)
        values[n] = ks_distance(density_dp(spec), closed_form_moments(spec))
    assert 0 < values[64] < values[16] < 1


def _levelwise_ks_distance(density, stats):
    """The per-level loop over gaussian_cdf that ks_distance replaces."""
    best, cumulative = 0.0, 0
    for level, count in density.items():
        gauss = gaussian_cdf(float(density.energy(level)), stats.mu, stats.sigma)
        below = cumulative / density.total
        cumulative += count
        above = cumulative / density.total
        best = max(best, abs(below - gauss), abs(above - gauss))
    return best


@pytest.mark.parametrize("spec", [
    ChainSpec("PF", 80, 2),  # degeneracies above 2**63
    ChainSpec("HS", 40, 3, -1),
    ChainSpec("FI", 30, 2, alpha=Fraction(5, 3)),
])
def test_ks_distance_equals_the_levelwise_loop_bit_for_bit(spec):
    stats = closed_form_moments(spec)
    density = density_dp(spec)
    if spec.family == "PF":
        assert max(density.degeneracies) > 2 ** 63
    assert ks_distance(density, stats) == _levelwise_ks_distance(density, stats)


def test_ks_distance_reads_both_kinds_of_density():
    stats = SpectrumStats.from_exact(Fraction(0), Fraction(1))
    table = DensityTable.from_counts({-1: 1, 0: 2, 1: 1})
    masses = LevelMasses(scaled=np.array([-1, 0, 1]), energy_scale=1,
                         masses=np.array([0.25, 0.5, 0.25]))
    np.testing.assert_array_equal(masses.cdf_steps(), table.cdf_steps())
    assert ks_distance(masses, stats) == ks_distance(table, stats)
    empty = LevelMasses(scaled=np.array([], dtype=np.int64), energy_scale=1, masses=np.array([]))
    with pytest.raises(ValidationError, match="empty"):
        ks_distance(empty, stats)
