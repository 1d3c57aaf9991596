"""Chain specs, dispersion tables, and the normalized bond weights."""

import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import hschain.chains
from hschain import (ANTIFERRO, CapacityError, ChainSpec, ValidationError, dispersion,
                     normalized_dispersion)
from hschain.chains import _dispersion, scaled_dispersion_total


def weights(table):
    """The bond weights F(i) of a dispersion table as exact Fractions."""
    return tuple(Fraction(s, table.energy_scale) for s in table.scaled)


def test_dispersion_circle_chain():
    table = dispersion(ChainSpec("HS", 4, 2))
    assert weights(table) == (Fraction(3), Fraction(4), Fraction(3))
    assert table.energy_scale == 1
    assert table.scaled == (3, 4, 3)


def test_dispersion_linear_chain():
    table = dispersion(ChainSpec("PF", 3, 2))
    assert weights(table) == (Fraction(1), Fraction(2))
    assert table.total == 3


def test_dispersion_hyperbolic_chain():
    # alpha = 1 collapses to squares, alpha = 3/2 needs the scale-2 grid
    assert weights(dispersion(ChainSpec("FI", 3, 2, alpha=1))) == (Fraction(1), Fraction(4))
    assert dispersion(ChainSpec("FI", 3, 2, alpha=1)).energy_scale == 1
    table = dispersion(ChainSpec("FI", 3, 2, alpha="3/2"))
    assert weights(table) == (Fraction(3, 2), Fraction(5))
    assert table.energy_scale == 2
    assert table.scaled == (3, 10)


@pytest.mark.parametrize("n", range(2, 10))
def test_circle_dispersion_is_palindromic(n):
    values = weights(dispersion(ChainSpec("HS", n, 2)))
    assert values == values[::-1]


@pytest.mark.parametrize("spec", [
    ChainSpec("PF", 9, 2),
    ChainSpec("FI", 9, 2, alpha=Fraction(3, 2)),
])
def test_dispersion_strictly_increasing(spec):
    values = weights(dispersion(spec))
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [9, 10])
def test_circle_dispersion_increases_to_the_middle(n):
    values = weights(dispersion(ChainSpec("HS", n, 2)))
    rising = values[: (len(values) + 1) // 2]
    assert all(a < b for a, b in zip(rising, rising[1:]))


def test_scaled_values_are_integers():
    for alpha in (1, Fraction(3, 2), Fraction(7, 3)):
        table = dispersion(ChainSpec("FI", 6, 2, alpha=alpha))
        for value, scaled in zip(weights(table), table.scaled):
            assert value * table.energy_scale == scaled
            assert isinstance(scaled, int)
        assert table.scaled_total == sum(table.scaled)


@pytest.mark.parametrize("family, alpha", [
    ("HS", None), ("PF", None), ("FI", Fraction(1)), ("FI", Fraction(3, 2)),
    ("FI", Fraction(5, 3)), ("FI", Fraction(1, 20)), ("FI", Fraction(7)),
])
def test_closed_form_dispersion_total_is_the_sum_of_the_weights(family, alpha):
    for n in range(2, 40):
        spec = ChainSpec(family, n, 2, alpha=alpha)
        assert scaled_dispersion_total(spec) == sum(dispersion(spec).scaled), n


def test_spec_validation():
    with pytest.raises(ValidationError):
        ChainSpec("HS", 1, 2)
    with pytest.raises(ValidationError):
        ChainSpec("HS", 4, 0)
    with pytest.raises(ValidationError):
        ChainSpec("XY", 4, 2)
    with pytest.raises(ValidationError):
        ChainSpec("FI", 4, 2)  # hyperbolic chain needs alpha
    with pytest.raises(ValidationError):
        ChainSpec("HS", 4, 2, alpha=1)  # other families must not carry one
    with pytest.raises(ValidationError):
        ChainSpec("FI", 4, 2, alpha=0)
    with pytest.raises(ValidationError):
        ChainSpec("FI", 4, 2, alpha=Fraction(-1, 2))
    for bad in (("HS", True, 2), ("HS", 4, True), ("HS", 4, 2, True), ("HS", 4, 2, 1.0)):
        with pytest.raises(ValidationError):
            ChainSpec(*bad)  # bools and floats are not counts or signs


def test_alpha_accepts_exact_forms_only():
    expected = Fraction(3, 2)
    assert ChainSpec("FI", 4, 2, alpha="3/2").alpha == expected
    assert ChainSpec("FI", 4, 2, alpha=(3, 2)).alpha == expected
    assert ChainSpec("FI", 4, 2, alpha=Fraction(3, 2)).alpha == expected
    assert ChainSpec("FI", 4, 2, alpha=2).alpha == Fraction(2)
    for bad in (1.5, True, (3.7, 2), (True, 2), (3, 0), ("a", 2)):
        with pytest.raises(ValidationError):
            ChainSpec("FI", 4, 2, alpha=bad)
    with pytest.raises(ValidationError, match="alpha pair must have two entries"):
        ChainSpec("FI", 4, 2, alpha=(3, 2, 1))


def test_n_states():
    assert ChainSpec("HS", 5, 3).n_states == 3 ** 5


def test_with_epsilon():
    spec = ChainSpec("PF", 6, 2)
    flipped = replace(spec, epsilon=-1)
    assert flipped.epsilon == -1
    assert flipped.family == spec.family and flipped.n_spins == spec.n_spins
    assert spec.epsilon == 1  # original untouched
    with pytest.raises(ValidationError):
        replace(spec, epsilon=0)  # a replaced field is validated again


def test_json_round_trip():
    for spec in (
        ChainSpec("HS", 6, 3, epsilon=-1),
        ChainSpec("FI", 5, 2, alpha=Fraction(7, 3)),
    ):
        assert ChainSpec.from_json_dict(spec.to_json_dict()) == spec
        assert ChainSpec.from_json(json.dumps(spec.to_json_dict(), sort_keys=True)) == spec


def test_json_accepts_lowercase_family():
    spec = ChainSpec.from_json_dict({"family": "pf", "N": 4, "m": 2, "epsilon": 1})
    assert spec.family == "PF"


def test_json_refuses_unknown_keys():
    # "eps" would otherwise leave epsilon at its ferromagnetic default
    for key in ("eps", "n_spins", "Alpha", ""):
        with pytest.raises(ValidationError, match=f"unknown chain spec key '{key}'"):
            ChainSpec.from_json_dict({"family": "HS", "N": 8, "m": 2, key: -1})
    assert ChainSpec.from_json('{"family": "HS", "N": 8, "m": 2, "epsilon": -1}') == ChainSpec(
        "HS", 8, 2, ANTIFERRO)
    with pytest.raises(ValidationError, match="malformed chain spec"):
        ChainSpec.from_json('["family", "N", "m"]')


def test_json_integers_are_not_truncated():
    assert ChainSpec.from_json('{"family": "HS", "N": "4", "m": 2.0}') == ChainSpec("HS", 4, 2)
    for field, value in (("N", 4.9), ("m", 2.7), ("epsilon", -1.5), ("N", True),
                         ("m", "2.5"), ("N", 1e400)):
        data = {"family": "HS", "N": 4, "m": 2, field: value}
        with pytest.raises(ValidationError):
            ChainSpec.from_json_dict(data)


def exact_normalized_dispersion(spec, sigma2):
    """Reference: the squares of the normalized bond weights as exact
    rationals, gamma_j**2 = F(j)**2 / (m**2 * sigma2), without the float
    square root."""
    denom = spec.m * spec.m * sigma2
    return [v * v / denom for v in weights(dispersion(spec))]


def test_normalized_weights_match_their_exact_squares():
    spec = ChainSpec("FI", 7, 3, alpha=Fraction(3, 2))
    sigma2 = Fraction(55, 7)  # any positive rational will do here
    gam = normalized_dispersion(spec, math.sqrt(sigma2))
    exact_sq = exact_normalized_dispersion(spec, sigma2)
    assert np.allclose(gam ** 2, [float(g) for g in exact_sq], rtol=1e-13, atol=0)


def test_a_huge_dispersion_is_refused_before_any_weight_is_built():
    # at 84 bytes a bond, a billion spins would take 84 GB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="dispersion of 999999999 bonds"):
            dispersion(ChainSpec("PF", 10 ** 9, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("family, alpha", [
    ("HS", None), ("PF", None), ("FI", Fraction(3, 2)),
    # scaled weights of 86, 169 and 368 bits at N = 2 * 10**5
    ("FI", Fraction(1, 10**15 + 37)), ("FI", Fraction(1, 10**40 + 1)),
    ("FI", Fraction(1, 10**100 + 1)),
])
def test_the_dispersion_peak_stays_within_the_gate(family, alpha, monkeypatch):
    # the gate counts the int width of the largest scaled weight before any
    # weight is built; a flat 88 bytes a bond undercounted the wide FI weights
    counted = []
    check = hschain.chains.check_grid_budget
    monkeypatch.setattr(hschain.chains, "check_grid_budget",
                        lambda text, nbytes: counted.append(nbytes) or check(text, nbytes))
    _dispersion.cache_clear()
    tracemalloc.start()
    try:
        normalized_dispersion(ChainSpec(family, 2 * 10 ** 5, 2, alpha=alpha), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _dispersion.cache_clear()
    assert counted and peak <= counted[0], (peak, counted)


def test_normalized_weights_scale_inversely_with_sigma():
    spec = ChainSpec("HS", 8, 2)
    base = normalized_dispersion(spec, 1.0)
    assert np.allclose(normalized_dispersion(spec, 4.0), base / 4.0, rtol=1e-15)


def _rational_dispersion(spec):
    """The dispersion as exact rationals, with the common scale found as
    the lcm of their denominators: the table's integers must equal this."""
    n = spec.n_spins
    if spec.family == "HS":
        values = tuple(Fraction(i * (n - i)) for i in range(1, n))
    elif spec.family == "PF":
        values = tuple(Fraction(i) for i in range(1, n))
    else:
        values = tuple(i * (spec.alpha + i - 1) for i in range(1, n))
    scale = 1
    for v in values:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    return values, scale, tuple(int(v * scale) for v in values)


@pytest.mark.parametrize("family, alpha", [
    ("HS", None), ("PF", None), ("FI", Fraction(1)), ("FI", Fraction(3, 2)),
    ("FI", Fraction(5, 3)), ("FI", Fraction(7, 3)), ("FI", Fraction(1, 2)), ("FI", Fraction(22, 7)),
    # scaled weights past 2**53: at N = 130, 21 of them differ from the
    # exact float when divided as floats
    ("FI", Fraction(1, 10**15 + 37)),
])
def test_dispersion_integers_equal_the_rational_weights(family, alpha):
    for n in (2, 3, 4, 7, 25, 130):
        spec = ChainSpec(family, n, 2, alpha=alpha)
        table = dispersion(spec)
        values, scale, scaled = _rational_dispersion(spec)
        assert weights(table) == values, spec
        assert table.energy_scale == scale, spec
        assert table.scaled == scaled and all(type(s) is int for s in table.scaled), spec
        assert table.total == sum(values, Fraction(0)), spec
        assert len(table) == n - 1
        # one correctly rounded division is float() of the exact rational
        assert np.array_equal(table._floats, np.array([float(v) for v in values])), spec


@pytest.mark.parametrize("family, alpha", [("HS", None), ("PF", None), ("FI", Fraction(3, 2))])
def test_a_written_float_copy_leaves_the_weights_alone(family, alpha):
    # the float weights are formed once per table; normalized_dispersion
    # hands out a new array
    spec = ChainSpec(family, 9, 3, alpha=alpha)
    table = dispersion(spec)
    exact = np.array([float(v) for v in weights(table)])
    before = normalized_dispersion(spec, 2.0)
    normalized_dispersion(spec, 2.0)[:] = -1.0
    assert np.array_equal(normalized_dispersion(spec, 2.0), before)
    assert np.array_equal(before, exact / 6.0)
    assert np.array_equal(table._floats, exact)
