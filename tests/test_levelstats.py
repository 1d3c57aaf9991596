"""Unfolding, spacing statistics, and the Gaussian goodness-of-fit."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hschain import (
    ChainSpec,
    ValidationError,
    closed_form_moments,
    ks_distance,
    normalized_spacings,
    spacing_distribution,
    unfold,
)
from hschain import levelstats
from hschain.density import LevelMasses, LevelSupport, density_dp, level_support
from hschain.levelstats import (
    _CODY_BREAKS,
    UnfoldedSpectrum,
    _erfc,
    default_spacing_bins,
    poisson_reference,
    wigner_reference,
)
from hschain.moments import SpectrumStats
from small_tables import table_of


def _levelwise_cdf(energy: float, mu, sigma: float) -> float:
    """The Gaussian CDF of one level in unfold's float operations: the
    kernel on a single element, one tail or one minus the other."""
    z = (energy - float(mu)) / (math.sqrt(2.0) * float(sigma))
    tail = float(_erfc(np.array([abs(z)]))[0]) * 0.5
    return tail if z <= 0 else 1.0 - tail


def test_cdf_midpoint_and_tails():
    assert _levelwise_cdf(3.0, 3.0, 2.0) == 0.5
    assert _levelwise_cdf(1e9, 0.0, 1.0) == 1.0
    assert _levelwise_cdf(-1e9, 0.0, 1.0) == 0.0


def test_cdf_of_nan_is_nan():
    assert math.isnan(_levelwise_cdf(math.nan, 0.0, 1.0))


def test_cdf_one_width_above_the_mean():
    assert _levelwise_cdf(1.0, 0.0, 1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_cdf_mirror_symmetry():
    for e in (0.3, 1.7, 4.2):
        assert _levelwise_cdf(2.0 - e, 1.0, 0.7) == pytest.approx(
            1.0 - _levelwise_cdf(e, 1.0, 0.7), abs=1e-15
        )


# Cody's kernel measured 8 ulp off math.erfc at worst over 2 M points in [0, 27]
ERFC_ULP_BOUND = 12


def test_erfc_kernel_is_within_a_few_ulp_of_math_erfc():
    breaks = np.array(_CODY_BREAKS)
    neighbours = [np.nextafter(breaks, 0.0), breaks, np.nextafter(breaks, np.inf)]
    y = np.unique(np.concatenate([np.linspace(0.0, 27.0, 270_001), *neighbours]))
    values = _erfc(y)
    reference = np.array([math.erfc(v) for v in y.tolist()])
    inside = y <= breaks[-1]
    # for floats of one sign the bit patterns count the ulps between them
    ulps = np.abs(values.view(np.int64) - reference.view(np.int64))
    assert ulps[inside].max() <= ERFC_ULP_BOUND
    # past the last break erfc is below 2.3e-308, and the kernel gives 0
    assert np.all(values[~inside] == 0.0) and reference[~inside].max() < 2.3e-308
    assert np.all(np.diff(values) <= 0)
    assert _levelwise_cdf(0.0, 0.0, 1.0) == 0.5


def test_cdf_rejects_nonpositive_width():
    support = LevelSupport(np.array([-1, 0, 1]), 1)
    with pytest.raises(ValidationError, match="sigma must be positive"):
        unfold(support, SpectrumStats.from_exact(Fraction(0), Fraction(0)))


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
    flipped = replace(spec, epsilon=-1)
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
        [_levelwise_cdf(e / density.energy_scale, stats.mu, stats.sigma) for e in density.levels()]
    )
    assert np.array_equal(unfold(density, stats).eta, reference)
    assert np.array_equal(unfold(level_support(spec), stats).eta, reference)


@pytest.mark.parametrize("spec", [ChainSpec("HS", 128, 2), ChainSpec("PF", 200, 2)])
def test_both_tails_stay_strictly_ordered_with_no_zero_spacing(spec):
    # 0.5 * (1 + erf(z)) rounded 26.1 % and 35.4 % of these spacings to 0
    unfolded = unfold(level_support(spec), closed_form_moments(spec))
    tail, split = unfolded.tail, unfolded.split
    assert 0 < split < tail.size
    assert np.all(np.diff(tail[:split]) > 0) and np.all(np.diff(tail[split:]) < 0)
    assert (1.0 - tail[split]) - tail[split - 1] > 0
    assert tail.min() > 0 and unfolded.underflow == 0
    spacings = normalized_spacings(unfolded)
    assert np.count_nonzero(spacings == 0.0) == 0
    assert abs(spacings.mean() - 1.0) < 1e-9


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 128, 2),
    ChainSpec("HS", 128, 2, -1),
    ChainSpec("FI", 30, 2, alpha=Fraction(5, 3)),
])
def test_unfolded_tails_are_within_a_few_ulp_of_math_erfc(spec):
    support, stats = level_support(spec), closed_form_moments(spec)
    width = math.sqrt(2.0) * stats.sigma
    reference = np.array([
        0.5 * math.erfc(abs((float(Fraction(e, support.energy_scale)) - float(stats.mu)) / width))
        for e in support.levels().tolist()
    ])
    tail = unfold(support, stats).tail
    assert reference.min() > 0
    # for floats of one sign the bit patterns count the ulps between them
    assert np.abs(tail.view(np.int64) - reference.view(np.int64)).max() <= ERFC_ULP_BOUND


def test_unfold_peak_memory_is_one_float_a_level_and_its_pieces():
    # 583,984 levels; the kernel's pieces are 64 Ki levels, 512 KiB each
    support = level_support(ChainSpec("HS", 192, 2))
    stats = closed_form_moments(ChainSpec("HS", 192, 2))
    tracemalloc.start()
    try:
        unfold(support, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(support) + (6 << 20)


def test_unfold_in_pieces_equals_one_piece(monkeypatch):
    # 171,554 levels: each tail fills one piece of the kernel and part of a second
    spec = ChainSpec("HS", 128, 2)
    support, stats = level_support(spec), closed_form_moments(spec)
    pieces = unfold(support, stats)
    monkeypatch.setattr(levelstats, "_CHUNK_BYTES", 1 << 40)
    whole = unfold(support, stats)
    assert pieces.split == whole.split
    assert np.array_equal(pieces.tail, whole.tail)


def test_underflowed_tails_are_counted():
    # z = E / sqrt(2): |E| = 45 and 60 put |z| past 26.543, where the tail is
    # 0, and |E| = 37.533 gives |z| = 26.54, whose tail is subnormal
    scaled = np.array([-60000, -45000, -37533, -30000, 0, 30000, 37533, 45000, 60000])
    stats = SpectrumStats.from_exact(Fraction(0), Fraction(1))
    unfolded = unfold(LevelSupport(scaled, 1000), stats)
    assert unfolded.split == 5
    assert unfolded.underflow == 6
    # the two zero tails on each side tie
    assert np.count_nonzero(normalized_spacings(unfolded) == 0.0) == 2


def test_unfold_needs_three_distinct_levels():
    spec = ChainSpec("PF", 2, 2)
    with pytest.raises(ValidationError):
        unfold(density_dp(spec), closed_form_moments(spec))


def test_spacings_have_unit_mean():
    for spec in (ChainSpec("HS", 12, 2), ChainSpec("PF", 20, 2, -1)):
        s = normalized_spacings(unfold(density_dp(spec), closed_form_moments(spec)))
        assert abs(s.mean() - 1.0) < 1e-12


def test_equal_gaps_normalize_to_ones():
    # eta = 0.2, 0.3, ..., 0.8
    tail = np.array([0.2, 0.3, 0.4, 0.5, 0.4, 0.3, 0.2])
    s = normalized_spacings(UnfoldedSpectrum(tail, split=4))
    assert np.allclose(s, 1.0, atol=1e-12)


def test_two_levels_give_the_single_unit_spacing():
    s = normalized_spacings(UnfoldedSpectrum(np.array([0.3, 0.4]), split=1))  # eta = 0.3, 0.6
    assert s.tolist() == [1.0]


def test_degenerate_unfolded_sequence_is_rejected():
    with pytest.raises(ValidationError):
        normalized_spacings(UnfoldedSpectrum(np.array([0.4, 0.4, 0.4]), split=3))
    with pytest.raises(ValidationError):
        normalized_spacings(UnfoldedSpectrum(np.array([0.4]), split=1))


@pytest.mark.parametrize("side", ["below", "above"])
def test_spacings_with_every_level_on_one_side_of_the_mean(side):
    # a mean below every level leaves split 0, one above every level split n:
    # every gap is then a difference within one tail, and the span is that
    # tail's first level against its last
    spec = ChainSpec("HS", 10, 2)
    density = density_dp(spec)
    levels = density.levels()
    mu = int(levels[0]) - 1 if side == "below" else int(levels[-1]) + 1
    unfolded = unfold(density, SpectrumStats.from_exact(Fraction(mu),
                                                        closed_form_moments(spec).sigma2))
    assert unfolded.split == (0 if side == "below" else levels.size)
    s = normalized_spacings(unfolded)
    assert s.size == levels.size - 1 and (s > 0).all()
    assert abs(s.mean() - 1.0) < 1e-12


def test_split_outside_the_levels_is_rejected():
    with pytest.raises(ValidationError, match="split"):
        UnfoldedSpectrum(np.array([0.3, 0.4]), split=3)
    with pytest.raises(ValidationError, match="split"):
        UnfoldedSpectrum(np.array([0.3, 0.4]), split=-1)


def _mass(hist):
    """Integral of a spacing histogram over its bins."""
    return float((hist.density * np.diff(hist.bin_edges)).sum())


def test_histogram_mass_is_one():
    spec = ChainSpec("HS", 24, 2)
    unfolded = unfold(density_dp(spec), closed_form_moments(spec))
    hist = spacing_distribution(unfolded)
    assert _mass(hist) == pytest.approx(1.0, abs=1e-12)
    # still 1 when some spacings land outside a short bin range
    short = spacing_distribution(unfolded, bins=default_spacing_bins(0.75, 6))
    assert _mass(short) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bins", [[1.0, 0.5], [0.0, math.nan, 1.0], [0.5]])
def test_bad_bin_edges_are_rejected(bins):
    spec = ChainSpec("HS", 12, 2)
    unfolded = unfold(density_dp(spec), closed_form_moments(spec))
    with pytest.raises(ValidationError, match="bin edges"):
        spacing_distribution(unfolded, bins=bins)


def test_bins_that_hold_no_spacing_are_refused():
    spec = ChainSpec("HS", 12, 2)
    unfolded = unfold(density_dp(spec), closed_form_moments(spec))
    with pytest.raises(ValidationError, match="no spacings fall inside the requested bins"):
        spacing_distribution(unfolded, bins=[100.0, 200.0])


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

    table = table_of({0: 1})
    stats = SpectrumStats.from_exact(Fraction(0), Fraction(1))
    assert ks_distance(table, stats) == pytest.approx(0.5)


def test_ks_distance_shrinks_with_chain_length():
    values = {}
    for n in (16, 64):
        spec = ChainSpec("PF", n, 2)
        values[n] = ks_distance(density_dp(spec), closed_form_moments(spec))
    assert 0 < values[64] < values[16] < 1


def _levelwise_ks_distance(density, stats):
    """The per-level loop that ks_distance replaces."""
    best, cumulative = 0.0, 0
    for level, count in density.items():
        gauss = _levelwise_cdf(level / density.energy_scale, stats.mu, stats.sigma)
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
    table = table_of({-1: 1, 0: 2, 1: 1})
    masses = LevelMasses(scaled=np.array([-1, 0, 1]), energy_scale=1,
                         masses=np.array([0.25, 0.5, 0.25]))
    np.testing.assert_array_equal(masses.cdf_steps(), table.cdf_steps())
    assert ks_distance(masses, stats) == ks_distance(table, stats)
    empty = LevelMasses(scaled=np.array([], dtype=np.int64), energy_scale=1, masses=np.array([]))
    with pytest.raises(ValidationError, match="empty"):
        ks_distance(empty, stats)
