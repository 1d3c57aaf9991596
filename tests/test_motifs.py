"""Pairing rules, motif vectors, and the brute-force spectrum."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest

import hschain.motifs
from hschain import CapacityError, ChainSpec, DeltaRule, ValidationError, density_dp, dispersion
from hschain.motifs import brute_force_density, delta, motif_energy, motif_of, rule_for


def test_ferro_rule_truth_table():
    rule = DeltaRule.ferro()
    assert delta(rule, 1, 2, 2) == 1
    assert delta(rule, 2, 2, 2) == 0
    assert delta(rule, 2, 1, 2) == 0


def test_antiferro_rule_flips_the_bits():
    rule = DeltaRule.antiferro()
    assert delta(rule, 1, 2, 2) == 0
    assert delta(rule, 2, 2, 2) == 1
    for j, k in itertools.product((1, 2, 3), repeat=2):
        assert delta(rule, j, k, 3) == 1 - delta(DeltaRule.ferro(), j, k, 3)


def test_graded_rule_splits_the_diagonal():
    rule = DeltaRule.susy(1, 1)
    assert delta(rule, 1, 1, 2) == 0
    assert delta(rule, 2, 2, 2) == 1
    assert delta(rule, 2, 1, 2) == 1
    assert delta(rule, 1, 2, 2) == 0


def test_delta_rejects_out_of_range_values():
    with pytest.raises(ValidationError):
        delta(DeltaRule.ferro(), 0, 1, 2)
    with pytest.raises(ValidationError):
        delta(DeltaRule.ferro(), 1, 3, 2)


def test_rule_validation():
    with pytest.raises(ValidationError):
        DeltaRule("bogus")
    with pytest.raises(ValidationError):
        DeltaRule.susy(-1, 2)
    with pytest.raises(ValidationError):
        DeltaRule("ferro", boundary=1)
    # graded rule fixes m = boundary + fermionic
    assert DeltaRule.susy(2, 1).implied_m() == 3
    with pytest.raises(ValidationError):
        delta(DeltaRule.susy(1, 1), 1, 1, 3)


def test_rule_for_follows_the_sign():
    assert rule_for(ChainSpec("HS", 4, 2)).kind == "ferro"
    assert rule_for(ChainSpec("HS", 4, 2, epsilon=-1)).kind == "antiferro"


def test_motif_examples():
    ferro = DeltaRule.ferro()
    assert motif_of(ferro, (1, 2, 1), 2) == (1, 0)
    assert motif_of(ferro, (2, 2, 2), 2) == (0, 0)
    assert motif_of(DeltaRule.antiferro(), (1, 2, 1), 2) == (0, 1)


def test_motif_energy_examples():
    pf3 = dispersion(ChainSpec("PF", 3, 2))
    hs4 = dispersion(ChainSpec("HS", 4, 2))
    assert motif_energy((1, 0), pf3) == 1
    assert motif_energy((1, 1, 1), hs4) == 10
    assert motif_energy((0, 0, 0), hs4) == 0
    with pytest.raises(ValidationError):
        motif_energy((1, 0, 1), pf3)
    with pytest.raises(ValidationError):
        motif_energy((1, 2), pf3)


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
        rule = rule_for(spec)
        disp = dispersion(spec)
        counts = {}
        for config in itertools.product(range(1, spec.m + 1), repeat=spec.n_spins):
            energy = motif_energy(motif_of(rule, config, spec.m), disp)
            counts[energy] = counts.get(energy, 0) + 1
        table = brute_force_density(spec)
        assert {table.energy(e): d for e, d in table.items()} == counts


def test_graded_rule_through_brute_force():
    spec = ChainSpec("PF", 4, 2)
    rule = DeltaRule.susy(1, 1)
    table = brute_force_density(spec, rule=rule)
    assert table.total == 16
    # oracle as above, graded bits this time
    disp = dispersion(spec)
    counts = {}
    for config in itertools.product((1, 2), repeat=4):
        energy = int(motif_energy(motif_of(rule, config, 2), disp))
        counts[energy] = counts.get(energy, 0) + 1
    assert dict(table.items()) == counts


def test_graded_rule_rejects_mismatched_m():
    with pytest.raises(ValidationError):
        brute_force_density(ChainSpec("PF", 4, 3), rule=DeltaRule.susy(1, 1))


def test_sign_flip_mirrors_the_table():
    # brute force enumerates under the antiferro rule itself, so this holds
    # the reflection that density_dp relies on for its default antiferro route
    for spec in (ChainSpec("HS", 5, 2), ChainSpec("FI", 5, 3, alpha=2)):
        top = dispersion(spec).scaled_total
        ferro = brute_force_density(spec)
        anti = brute_force_density(spec.with_epsilon(-1), rule=DeltaRule.antiferro())
        assert dict(anti.items()) == {top - e: d for e, d in ferro.items()}
        assert density_dp(spec.with_epsilon(-1)) == anti


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
