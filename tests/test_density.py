"""The dynamic-program density, the composition-sum density, and Z(q)."""

import cmath
import itertools
import operator
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from hschain import CapacityError, ChainSpec, DeltaRule, ValidationError, delta, dispersion
from hschain.density import (
    DEFAULT_MEMORY_BUDGET,
    _bond_dp,
    _bond_plan,
    _predicted_peak,
    composition_density,
    density_dp,
    level_support,
    partition_function_at,
    spin_degeneracy,
)
from hschain.motifs import brute_force_density, rule_for

FAMILY_GRID = [
    ("HS", None),
    ("PF", None),
    ("FI", Fraction(1)),
    ("FI", Fraction(3, 2)),
    ("FI", Fraction(2)),
]


def test_dp_spot_values():
    assert dict(density_dp(ChainSpec("PF", 3, 2)).items()) == {0: 4, 1: 2, 2: 2}
    assert dict(density_dp(ChainSpec("HS", 4, 2)).items()) == {0: 5, 3: 6, 4: 4, 6: 1}


def test_dp_single_valued_spins():
    assert dict(density_dp(ChainSpec("HS", 9, 1)).items()) == {0: 1}


def test_composition_two_spin_cases():
    # N = 2 has exactly two compositions, small enough to expand by hand
    assert dict(composition_density(ChainSpec("PF", 2, 2)).items()) == {0: 3, 1: 1}
    assert dict(composition_density(ChainSpec("PF", 2, 2, epsilon=-1)).items()) == {0: 1, 1: 3}


def test_dp_matches_brute_force():
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (1, 2, 3), range(2, 8), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        assert density_dp(spec) == brute_force_density(spec), spec


def test_composition_matches_dp():
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3, 4), range(2, 11), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        assert composition_density(spec) == density_dp(spec), spec


def test_dp_handles_graded_rule():
    spec = ChainSpec("FI", 5, 3, alpha=Fraction(1, 2))
    rule = DeltaRule.susy(2, 1)
    assert density_dp(spec, rule=rule) == brute_force_density(spec, rule=rule)


def test_sign_flip_mirrors_dp_table():
    spec = ChainSpec("HS", 9, 3)
    ferro = density_dp(spec)
    anti = density_dp(spec.with_epsilon(-1))
    top = dispersion(spec).scaled_total
    assert dict(anti.items()) == {top - e: d for e, d in ferro.items()}


def test_large_chain_stays_exact():
    # far past the enumeration range; peak degeneracy exceeds 2**63
    table = density_dp(ChainSpec("PF", 80, 2))
    assert table.total == 2 ** 80
    assert sum(table.degeneracies) == 2 ** 80
    assert max(table.degeneracies) > 2 ** 63


def test_z_at_one_counts_states():
    table = density_dp(ChainSpec("PF", 3, 2))
    assert partition_function_at(table, 1.0) == pytest.approx(8.0)


def test_z_at_zero_is_ground_degeneracy():
    table = density_dp(ChainSpec("PF", 3, 2))
    assert partition_function_at(table, 0.0) == pytest.approx(4.0)


def test_z_on_the_unit_circle_matches_direct_sum():
    # fractional energy grid exercises the root-of-q branch
    spec = ChainSpec("FI", 5, 2, alpha=Fraction(3, 2))
    table = density_dp(spec)
    for theta in (0.3, 1.1, 2.9):
        q = cmath.exp(1j * theta)
        direct = sum(
            d * cmath.exp(1j * theta * float(table.energy(e)))
            for e, d in table.items()
        )
        assert partition_function_at(table, q) == pytest.approx(direct, abs=1e-12)


def test_spin_degeneracy_factors():
    assert [spin_degeneracy(k, 2, 1) for k in range(5)] == [1, 2, 3, 4, 5]
    assert [spin_degeneracy(k, 2, -1) for k in range(5)] == [1, 2, 1, 0, 0]
    assert spin_degeneracy(3, 4, 1) == 20
    assert spin_degeneracy(5, 4, -1) == 0  # no antisymmetric state on a long block


def test_composition_cap():
    with pytest.raises(CapacityError):
        composition_density(ChainSpec("PF", 25, 2))
    # explicit cap overrides the default
    composition_density(ChainSpec("PF", 25, 2), cap=25)


def test_dp_memory_budget():
    with pytest.raises(CapacityError):
        density_dp(ChainSpec("HS", 64, 4), memory_budget=1000)


def test_support_matches_dp_levels():
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3, 4), range(2, 19), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        support, table = level_support(spec), density_dp(spec)
        assert support.levels().dtype == np.int64
        assert np.array_equal(support.levels(), table.levels()), spec
        assert support.energy_scale == table.energy_scale, spec


def test_support_handles_graded_rules():
    for rule in (DeltaRule.susy(2, 1), DeltaRule.susy(1, 2)):
        for spec in (ChainSpec("FI", 7, 3, alpha=Fraction(1, 2)), ChainSpec("HS", 12, 3)):
            assert np.array_equal(level_support(spec, rule).levels(),
                                  density_dp(spec, rule).levels()), (spec, rule)


def test_support_count_at_a_size_the_exact_density_is_slow_for():
    # recorded from density_dp at HS N=192 m=2, ferro sign
    assert len(level_support(ChainSpec("HS", 192, 2))) == 583984


def test_support_memory_budget():
    spec = ChainSpec("HS", 64, 4)
    with pytest.raises(CapacityError):
        level_support(spec, memory_budget=1000)
    # the bit grid fits where the exact grid does not
    with pytest.raises(CapacityError):
        density_dp(spec, memory_budget=1 << 20)
    assert len(level_support(spec, memory_budget=1 << 20)) == len(density_dp(spec))


def test_support_budget_covers_the_unpack():
    # HS N=64 m=4: the bond loop holds 14 bit grids, 81,592 bytes; the
    # result and its unpacking (a byte and an int64 per energy cell) take
    # 404,418 bytes
    spec = ChainSpec("HS", 64, 4)
    with pytest.raises(CapacityError, match="to unpack"):
        level_support(spec, memory_budget=100_000)
    assert len(level_support(spec, memory_budget=500_000)) == len(density_dp(spec))


def _combine_every_source(spec, rule, slot_bits, combine):
    """The bond recursion combining each destination's sources afresh."""
    m = spec.m
    state = [1] * m
    for w in dispersion(spec).scaled:
        state = [
            combine(reduce(combine, [state[s - 1] for s in range(1, m + 1)
                                     if not delta(rule, s, d, m)], 0),
                    reduce(combine, [state[s - 1] for s in range(1, m + 1)
                                     if delta(rule, s, d, m)], 0) << (w * slot_bits))
            for d in range(1, m + 1)
        ]
    return reduce(combine, state)


@pytest.mark.parametrize("rule, spec", [
    *((rule, spec) for rule in (DeltaRule.ferro(), DeltaRule.antiferro())
      for spec in (ChainSpec("HS", 11, 2), ChainSpec("PF", 9, 4), ChainSpec("HS", 10, 5))),
    *((DeltaRule.susy(*graded), spec) for graded in ((2, 1), (1, 2), (0, 3), (3, 0))
      for spec in (ChainSpec("FI", 7, 3, alpha=Fraction(1, 2)), ChainSpec("HS", 12, 3))),
])
def test_bond_partials_equal_combining_every_source(rule, spec):
    slot_bits = 8 * max(8, (spec.n_states.bit_length() + 7) // 8 + 1)
    for bits, combine in ((slot_bits, operator.add), (1, operator.or_)):
        packed, _ = _bond_dp(spec, rule, bits, combine, DEFAULT_MEMORY_BUDGET)
        assert packed == _combine_every_source(spec, rule, bits, combine), (rule, spec, bits)


def test_bond_plan_rejects_a_rule_that_shifts_neither_a_prefix_nor_a_suffix(monkeypatch):
    # a rule shifting sources 1 and 3 but not 2 into every destination
    monkeypatch.setattr("hschain.density.delta", lambda rule, j, k, m: int(j != 2))
    with pytest.raises(ValidationError, match="not a prefix or a suffix"):
        density_dp(ChainSpec("HS", 4, 3))


@pytest.mark.parametrize("spec", [
    ChainSpec("FI", 64, 4, -1, Fraction(3, 2)),
    ChainSpec("HS", 96, 3),
    ChainSpec("HS", 64, 5, -1),
])
def test_measured_peaks_stay_within_the_prediction(spec):
    # the bond loop alone peaks at 9.3, 5.0 and 12.8 polynomials here,
    # the unpack of the bit grid at 50 to 60
    cells = dispersion(spec).scaled_total + 1
    plan = _bond_plan(rule_for(spec), spec.m)
    slot = max(8, (spec.n_states.bit_length() + 7) // 8 + 1)
    for backend, slot_bits in ((density_dp, 8 * slot), (level_support, 1)):
        predicted, _ = _predicted_peak(spec.m, plan, cells, slot_bits)
        tracemalloc.start()
        try:
            backend(spec, memory_budget=predicted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= predicted, (spec, backend.__name__, peak, predicted)


@pytest.mark.parametrize("backend", [brute_force_density, composition_density])
def test_dense_grid_backends_check_the_memory_budget(backend):
    # FI alpha = 10**15 at N = 3 needs a grid of 3 * 10**15 cells (21 PiB
    # of int64), which must be refused before any allocation
    spec = ChainSpec("FI", 3, 2, alpha=10 ** 15)
    with pytest.raises(CapacityError, match="over the budget"):
        backend(spec)
