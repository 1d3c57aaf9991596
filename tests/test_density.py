"""The dynamic-program density, the composition-sum density, and Z(q)."""

import cmath
import itertools
import operator
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import hschain.chains
import hschain.density
from hschain import (FERRO, CapacityError, ChainSpec, ValidationError,
                     closed_form_moments, dispersion, ks_distance)
from hschain.density import (
    _bond_dp,
    _spin_degeneracy,
    _exact_kind,
    _mass_kind,
    _slot_bytes,
    _support_kind,
    composition_density,
    density_dp,
    level_masses,
    level_support,
)
from hschain.motifs import brute_force_density, delta_bits
from diagnostics import partition_function_at
from small_tables import table_of

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


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 22, 2, -1),
    ChainSpec("PF", 13, 3),
    ChainSpec("FI", 11, 4, -1, Fraction(3, 2)),
])
def test_dp_matches_brute_force_beyond_a_million_states(spec):
    # 4.2 M, 1.6 M and 4.2 M states: past the 10**6 of acceptance 03
    assert density_dp(spec) == brute_force_density(spec), spec


def test_composition_matches_dp():
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3, 4), range(2, 11), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        assert composition_density(spec) == density_dp(spec), spec


def test_sign_flip_mirrors_dp_table():
    # the antiferro density is the ferro recursion read backwards, so brute
    # force, which enumerates under the antiferro rule itself, is the reference
    spec = ChainSpec("HS", 9, 3)
    ferro = density_dp(spec)
    anti = brute_force_density(replace(spec, epsilon=-1))
    top = dispersion(spec).scaled_total
    assert dict(anti.items()) == {top - e: d for e, d in ferro.items()}
    assert density_dp(replace(spec, epsilon=-1)) == anti


def test_mirrored_default_equals_the_direct_antiferro_recursion_at_large_n():
    # the composition sum applies the antiferro sign through its spin
    # degeneracies and never runs the bond DP
    spec = ChainSpec("FI", 64, 4, -1, Fraction(3, 2))
    direct = composition_density(spec)
    mirrored = density_dp(spec)
    assert mirrored == direct
    assert np.array_equal(mirrored.levels(), direct.levels())
    assert mirrored.degeneracies == direct.degeneracies
    assert np.array_equal(level_support(spec).levels(), direct.levels())


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


def test_z_refuses_a_negative_level():
    # the grid runs from energy zero up; dropping the level at -1 used to
    # give Z(1) = 3 for this table of 4 states
    table = table_of({-1: 1, 0: 2, 1: 1})
    for q in (1.0, 0.5):
        with pytest.raises(ValidationError, match="has -1"):
            partition_function_at(table, q)


def test_z_on_the_unit_circle_matches_direct_sum():
    # fractional energy grid exercises the root-of-q branch
    spec = ChainSpec("FI", 5, 2, alpha=Fraction(3, 2))
    table = density_dp(spec)
    for theta in (0.3, 1.1, 2.9):
        q = cmath.exp(1j * theta)
        direct = sum(
            d * cmath.exp(1j * theta * (e / table.energy_scale))
            for e, d in table.items()
        )
        assert partition_function_at(table, q) == pytest.approx(direct, abs=1e-12)


def test_spin_degeneracy_factors():
    assert [_spin_degeneracy(k, 2, 1) for k in range(5)] == [1, 2, 3, 4, 5]
    assert [_spin_degeneracy(k, 2, -1) for k in range(5)] == [1, 2, 1, 0, 0]
    assert _spin_degeneracy(3, 4, 1) == 20
    assert _spin_degeneracy(5, 4, -1) == 0  # no antisymmetric state on a long block


def test_composition_cap():
    # PF N=300 m=2 makes 7.9e10 byte-updates (45,150 row updates of 44,851
    # cells x 39 bytes) against the ceiling of 1e10.  PF N=5000 m=2 needs
    # 7.8e9 bytes for one row.  Neither allocates a row.
    for n, limit in ((300, "ceiling"), (5000, "budget")):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"over the {limit}"):
                composition_density(ChainSpec("PF", n, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, peak)


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 32, 2),
    ChainSpec("HS", 48, 2, -1),
    ChainSpec("FI", 30, 3, alpha=Fraction(3, 2)),
    ChainSpec("PF", 60, 2, -1),
    ChainSpec("PF", 400, 2, -1),
    ChainSpec("HS", 120, 2, -1),
])
def test_composition_matches_dp_beyond_the_brute_force_range(spec):
    assert composition_density(spec) == density_dp(spec)


def _set_budget(monkeypatch, budget):
    monkeypatch.setattr("hschain.table.DEFAULT_MEMORY_BUDGET", budget)


def test_dp_memory_budget(monkeypatch):
    _set_budget(monkeypatch, 1000)
    with pytest.raises(CapacityError):
        density_dp(ChainSpec("HS", 64, 4))


def test_support_matches_dp_levels():
    for (family, alpha), m, n, eps in itertools.product(
        FAMILY_GRID, (2, 3, 4), range(2, 19), (1, -1)
    ):
        spec = ChainSpec(family, n, m, eps, alpha)
        support, table = level_support(spec), density_dp(spec)
        assert support.levels().dtype == np.int64
        assert np.array_equal(support.levels(), table.levels()), spec
        assert support.energy_scale == table.energy_scale, spec


def test_support_count_at_a_size_the_exact_density_is_slow_for():
    # recorded from density_dp at HS N=192 m=2, ferro sign
    assert len(level_support(ChainSpec("HS", 192, 2))) == 583984


def test_support_memory_budget(monkeypatch):
    spec = ChainSpec("HS", 64, 4)
    exact = density_dp(spec)
    _set_budget(monkeypatch, 1000)
    with pytest.raises(CapacityError):
        level_support(spec)
    # the bit grid fits where the exact grid does not
    _set_budget(monkeypatch, 1 << 20)
    with pytest.raises(CapacityError):
        density_dp(spec)
    assert len(level_support(spec)) == len(exact)


def test_support_budget_covers_the_unpack(monkeypatch):
    # HS N=64 m=4: the bond loop holds 14 bit grids, 81,592 bytes; the
    # result and its unpacking (a byte and an int64 per energy cell) take
    # 404,418 bytes
    spec = ChainSpec("HS", 64, 4)
    exact = density_dp(spec)
    _set_budget(monkeypatch, 100_000)
    with pytest.raises(CapacityError, match="to unpack"):
        level_support(spec)
    _set_budget(monkeypatch, 500_000)
    assert len(level_support(spec)) == len(exact)


MASS_GRID = [
    ChainSpec(family, n, m, eps, alpha)
    for family, alpha in (("HS", None), ("PF", None), ("FI", Fraction(3, 2)))
    for m, n in ((2, 96), (3, 64), (4, 48))
    for eps in (1, -1)
]


@pytest.mark.parametrize("spec", MASS_GRID)
def test_masses_are_the_dp_degeneracies_over_the_state_count(spec):
    # N * log2(m) <= 96 here, far below the 1074 where a mass could underflow
    table, masses = density_dp(spec), level_masses(spec)
    assert np.array_equal(masses.levels(), table.levels())
    assert masses.energy_scale == table.energy_scale
    assert masses.masses.dtype == np.float64
    assert abs(masses.masses.sum() - 1) <= 1e-12
    exact = np.array([d / table.total for d in table.degeneracies])
    np.testing.assert_allclose(masses.masses, exact, rtol=1e-12, atol=0)
    # the largest KS difference measured over this grid is 5.0e-15
    stats = closed_form_moments(spec)
    assert abs(ks_distance(masses, stats) - ks_distance(table, stats)) <= 1e-13


def test_a_mass_kind_serves_more_than_one_recursion():
    # the per-bond division works in place on the states, never on the
    # kind's starting array
    spec = ChainSpec("HS", 12, 3)
    kind = _mass_kind(spec.m, dispersion(spec).scaled_total + 1)
    start = kind.one.copy()
    first = _bond_dp(spec, kind)
    assert np.array_equal(kind.one, start)
    assert np.array_equal(_bond_dp(spec, kind), first)


def test_masses_stay_normalized_past_the_float_range_of_the_state_count():
    # 8**360 = 2**1080 states overflow a float64; each bond divides by m,
    # so the masses still sum to 1, and a level whose mass is below
    # 2**-1074 drops out: here one extreme level of a few states
    spec = ChainSpec("PF", 360, 8, -1)
    masses, support = level_masses(spec), level_support(spec)
    assert abs(masses.masses.sum() - 1) <= 1e-12
    assert masses.masses.min() > 0
    assert 0 < len(support) - len(masses) <= 2
    assert np.isin(masses.levels(), support.levels()).all()


def _combine_every_source(spec, slot_bits, combine):
    """The ferro bond recursion combining each destination's sources afresh."""
    m = spec.m
    state = [1] * m
    for w in dispersion(spec).scaled:
        state = [
            combine(reduce(combine, [state[s - 1] for s in range(1, m + 1)
                                     if not delta_bits(FERRO, s, d)], 0),
                    reduce(combine, [state[s - 1] for s in range(1, m + 1)
                                     if delta_bits(FERRO, s, d)], 0) << (w * slot_bits))
            for d in range(1, m + 1)
        ]
    return reduce(combine, state)


def _read_slots(packed, cells, slot_bits):
    """The exact read-out as a loop over the cells: the occupied cells and
    their slots' values."""
    values = [(packed >> (slot_bits * e)) % (1 << slot_bits) for e in range(cells)]
    occupied = [e for e, value in enumerate(values) if value]
    return occupied, tuple(values[e] for e in occupied)


def _assert_exact_read(spec, cells, packed):
    levels, degeneracies = _exact_kind(spec, cells).read(packed)
    assert levels.dtype == np.int64
    assert (levels.tolist(), degeneracies) == _read_slots(packed, cells, 8 * _slot_bytes(spec))
    assert all(type(d) is int for d in degeneracies)


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 11, 2), ChainSpec("PF", 9, 4), ChainSpec("HS", 10, 5),
    ChainSpec("HS", 9, 1),  # m = 1: one level in the 8-byte minimum slot
])
def test_bond_partials_equal_combining_every_source(spec):
    cells = dispersion(spec).scaled_total + 1
    slot_bits = 8 * _slot_bytes(spec)
    for kind, bits, combine in ((_exact_kind(spec, cells), slot_bits, operator.add),
                                (_support_kind(cells), 1, operator.or_)):
        packed = _bond_dp(spec, kind)
        assert packed == _combine_every_source(spec, bits, combine), (spec, bits)
    counts = _combine_every_source(spec, slot_bits, operator.add)
    _assert_exact_read(spec, cells, counts)
    masses = _bond_dp(spec, _mass_kind(spec.m, cells))
    exact = [(counts >> (slot_bits * e)) % (1 << slot_bits) / spec.n_states
             for e in range(masses.size)]
    np.testing.assert_allclose(masses, exact, rtol=1e-13, atol=0)
    assert counts >> (slot_bits * masses.size) == 0


@pytest.mark.parametrize("spec, cells, values", [
    # a slot whose top byte is set, past any degeneracy of m**N states
    (ChainSpec("PF", 2, 2), 5, {0: 1 << 56, 2: (1 << 64) - 1, 4: 1}),
    # 13-byte slots and 4,097 levels, one past a piece of 4,096
    (ChainSpec("PF", 95, 2), 3 * 4096 + 2,
     {e: (e % 251 + 1) << (8 * (e % 13)) for e in range(0, 3 * 4096 + 2, 3)}),
])
def test_the_exact_read_out_reads_every_slot_whole(spec, cells, values):
    slot_bits = 8 * _slot_bytes(spec)
    assert max(values.values()).bit_length() <= slot_bits
    _assert_exact_read(spec, cells, sum(v << (slot_bits * e) for e, v in values.items()))


@pytest.mark.parametrize("spec", [
    ChainSpec("FI", 64, 4, -1, Fraction(3, 2)),
    ChainSpec("HS", 96, 3),
    ChainSpec("HS", 64, 5, -1),
])
def test_measured_peaks_stay_within_the_prediction(spec, monkeypatch):
    # the bond loop alone peaks at 9.3, 5.0 and 12.8 polynomials here,
    # the unpack of the bit grid at 50 to 60; the float masses peak at 6.5,
    # 4.0 and 9.6 grid-sized arrays, about half their prediction, because
    # the arrays grow with the bonds
    checks = []
    check = hschain.density.check_grid_budget
    monkeypatch.setattr(hschain.density, "check_grid_budget",
                        lambda *args: checks.append(args) or check(*args))
    for backend in (density_dp, level_support, level_masses):
        tracemalloc.start()
        try:
            backend(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, predicted = checks[-1]
        assert peak <= predicted, (spec, backend.__name__, peak, predicted)


@pytest.mark.parametrize("spec", [
    ChainSpec("FI", 14, 12, alpha=Fraction(1, 20)),
    ChainSpec("FI", 12, 6, alpha=Fraction(1, 20)),
    ChainSpec("HS", 24, 2, -1),
    ChainSpec("FI", 24, 2, alpha=Fraction(1, 7)),
    ChainSpec("FI", 20, 3, alpha=Fraction(1, 20)),
    ChainSpec("PF", 60, 2, -1),
])
def test_composition_peak_stays_within_the_counted_grids(spec, monkeypatch):
    # the ferro chains hold a row per cut ahead, so the loop sets their
    # prediction; the antiferro chains hold a few rows, and the unpack does
    checks = []
    check = hschain.density.check_grid_budget
    monkeypatch.setattr(hschain.density, "check_grid_budget",
                        lambda *args: checks.append(args) or check(*args))
    tracemalloc.start()
    try:
        composition_density(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, nbytes, _, _ = checks[-1]
    assert peak <= nbytes, (spec, peak, nbytes)


@pytest.mark.parametrize("backend", [brute_force_density, composition_density])
def test_dense_grid_backends_check_the_memory_budget(backend):
    # FI alpha = 10**15 at N = 3 needs a grid of 3 * 10**15 cells (21 PiB
    # of int64), which must be refused before any allocation
    spec = ChainSpec("FI", 3, 2, alpha=10 ** 15)
    with pytest.raises(CapacityError, match="over the budget"):
        backend(spec)


@pytest.mark.parametrize("backend", [
    density_dp, level_support, level_masses, composition_density, brute_force_density,
])
def test_a_grid_far_past_the_budget_is_refused_before_the_weights_are_built(backend):
    # PF N = 3,000,000 m = 2: 4.5e12 energy cells; the dispersion tuple
    # alone takes 120 MB and m**N has 3,000,001 bits, so the gate must
    # run on the closed-form top energy and form neither
    hschain.chains._dispersion.cache_clear()  # no table of an earlier case to reuse
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="over the"):
            backend(ChainSpec("PF", 3_000_000, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_slot_bytes_follow_the_bit_length_of_the_state_count():
    for m in range(1, 40):
        for n in (2, 3, 7, 64, 65, 300, 1001):
            expected = max(8, ((m ** n).bit_length() + 7) // 8 + 1)
            assert _slot_bytes(ChainSpec("PF", n, m)) == expected, (n, m)


FAULT_PROBE = """
import resource
from hschain import ChainSpec
from hschain.density import density_dp
spec = ChainSpec("FI", 64, 4, -1, "3/2")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
density_dp(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold rule")
def test_the_bond_loop_reuses_heap_pages_in_a_fresh_process():
    # each bond's largest polynomials used to come from fresh zero pages:
    # 82k minor faults (330 MB) for polynomials of 3.3 MB, against 9.5k now
    source = os.path.dirname(os.path.dirname(hschain.density.__file__))
    paths = filter(None, (source, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                           text=True, check=True)
    assert int(probe.stdout) < 25_000
