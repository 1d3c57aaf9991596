"""Pairing rules, motif vectors, and the brute-force spectrum."""

import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

import hschain.motifs
from hschain import ANTIFERRO, FERRO, CapacityError, ChainSpec, density_dp, dispersion
from hschain.motifs import brute_force_density, delta_bits


def motif_of(epsilon, config):
    """Motif bit vector of one spin configuration, one scalar pair at a time."""
    return tuple(int(delta_bits(epsilon, j, k)) for j, k in zip(config, config[1:]))


def motif_energy(motif, disp):
    """Energy of a motif: sum of dispersion values over the set bits."""
    return sum((Fraction(s, disp.energy_scale) for b, s in zip(motif, disp.scaled, strict=True)
                if b), Fraction(0))


def test_ferro_rule_truth_table():
    assert delta_bits(FERRO, 1, 2)
    assert not delta_bits(FERRO, 2, 2)
    assert not delta_bits(FERRO, 2, 1)


def test_antiferro_rule_flips_the_bits():
    assert not delta_bits(ANTIFERRO, 1, 2)
    assert delta_bits(ANTIFERRO, 2, 2)
    for j, k in itertools.product((1, 2, 3), repeat=2):
        assert delta_bits(ANTIFERRO, j, k) == (not delta_bits(FERRO, j, k))


def test_motif_examples():
    assert motif_of(FERRO, (1, 2, 1)) == (1, 0)
    assert motif_of(FERRO, (2, 2, 2)) == (0, 0)
    assert motif_of(ANTIFERRO, (1, 2, 1)) == (0, 1)


def test_motif_energy_examples():
    pf3 = dispersion(ChainSpec("PF", 3, 2))
    hs4 = dispersion(ChainSpec("HS", 4, 2))
    assert motif_energy((1, 0), pf3) == 1
    assert motif_energy((1, 1, 1), hs4) == 10
    assert motif_energy((0, 0, 0), hs4) == 0


def test_brute_force_spot_values():
    assert dict(brute_force_density(ChainSpec("PF", 3, 2)).items()) == {0: 4, 1: 2, 2: 2}
    assert dict(brute_force_density(ChainSpec("HS", 4, 2)).items()) == {0: 5, 3: 6, 4: 4, 6: 1}
    anti = brute_force_density(ChainSpec("PF", 3, 2, epsilon=-1))
    assert dict(anti.items()) == {1: 2, 2: 2, 3: 4}


def test_brute_force_matches_direct_enumeration():
    # independent oracle: plain python loop over every configuration
    for spec in (
        ChainSpec("HS", 4, 3),
        ChainSpec("PF", 4, 3, epsilon=-1),
        ChainSpec("FI", 4, 2, alpha=Fraction(3, 2)),
    ):
        disp = dispersion(spec)
        counts = {}
        for config in itertools.product(range(1, spec.m + 1), repeat=spec.n_spins):
            energy = motif_energy(motif_of(spec.epsilon, config), disp)
            counts[energy] = counts.get(energy, 0) + 1
        table = brute_force_density(spec)
        assert {Fraction(e, table.energy_scale): d for e, d in table.items()} == counts


def test_sign_flip_mirrors_the_table():
    # brute force enumerates under the antiferro rule itself, so this holds
    # the reflection that density_dp relies on for the antiferro sign
    for spec in (ChainSpec("HS", 5, 2), ChainSpec("FI", 5, 3, alpha=2)):
        top = dispersion(spec).scaled_total
        ferro = brute_force_density(spec)
        anti = brute_force_density(replace(spec, epsilon=-1))
        assert dict(anti.items()) == {top - e: d for e, d in ferro.items()}
        assert density_dp(replace(spec, epsilon=-1)) == anti


@pytest.mark.parametrize("m", [1, 2, 3])
def test_counts_sum_to_state_count(m):
    table = brute_force_density(ChainSpec("HS", 5, m))
    assert table.total == m ** 5
    assert sum(table.degeneracies) == m ** 5


def test_single_valued_spins_collapse_to_one_level():
    assert dict(brute_force_density(ChainSpec("PF", 6, 1)).items()) == {0: 1}


def test_enumeration_cap_is_enforced():
    # 2**27 states, over the ceiling of 10**8, refused before any block is built
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="density_dp"):
            brute_force_density(ChainSpec("HS", 27, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("spec", [ChainSpec("HS", 16, 2), ChainSpec("HS", 20, 2), ChainSpec("PF", 10, 4)])
def test_brute_force_peak_stays_within_the_counted_bytes(spec, monkeypatch):
    # a block holds a fixed handful of arrays whatever N is: the peak is
    # about 10.5 MB from HS N=20 m=2 on, within the 10.7 MB counted for them
    checks = []
    check = hschain.motifs.check_grid_budget
    monkeypatch.setattr(hschain.motifs, "check_grid_budget",
                        lambda *args: checks.append(args) or check(*args))
    tracemalloc.start()
    try:
        brute_force_density(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= checks[-1][1], (spec, peak, checks[-1][1])
