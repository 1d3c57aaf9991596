"""Chain specs, dispersion tables, and the normalized bond weights."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hschain import ChainSpec, ValidationError, dispersion, normalized_dispersion
from hschain.chains import exact_normalized_dispersion


def test_dispersion_circle_chain():
    table = dispersion(ChainSpec("HS", 4, 2))
    assert table.values == (Fraction(3), Fraction(4), Fraction(3))
    assert table.energy_scale == 1
    assert table.scaled == (3, 4, 3)


def test_dispersion_linear_chain():
    table = dispersion(ChainSpec("PF", 3, 2))
    assert table.values == (Fraction(1), Fraction(2))
    assert table.total == 3


def test_dispersion_hyperbolic_chain():
    # alpha = 1 collapses to squares, alpha = 3/2 needs the scale-2 grid
    assert dispersion(ChainSpec("FI", 3, 2, alpha=1)).values == (Fraction(1), Fraction(4))
    assert dispersion(ChainSpec("FI", 3, 2, alpha=1)).energy_scale == 1
    table = dispersion(ChainSpec("FI", 3, 2, alpha="3/2"))
    assert table.values == (Fraction(3, 2), Fraction(5))
    assert table.energy_scale == 2
    assert table.scaled == (3, 10)


@pytest.mark.parametrize("n", range(2, 10))
def test_circle_dispersion_is_palindromic(n):
    values = dispersion(ChainSpec("HS", n, 2)).values
    assert values == values[::-1]


@pytest.mark.parametrize("spec", [
    ChainSpec("PF", 9, 2),
    ChainSpec("FI", 9, 2, alpha=Fraction(3, 2)),
])
def test_dispersion_strictly_increasing(spec):
    values = dispersion(spec).values
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [9, 10])
def test_circle_dispersion_increases_to_the_middle(n):
    values = dispersion(ChainSpec("HS", n, 2)).values
    rising = values[: (len(values) + 1) // 2]
    assert all(a < b for a, b in zip(rising, rising[1:]))


def test_scaled_values_are_integers():
    for alpha in (1, Fraction(3, 2), Fraction(7, 3)):
        table = dispersion(ChainSpec("FI", 6, 2, alpha=alpha))
        for value, scaled in zip(table.values, table.scaled):
            assert value * table.energy_scale == scaled
            assert isinstance(scaled, int)
        assert table.scaled_total == sum(table.scaled)


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


def test_n_states():
    assert ChainSpec("HS", 5, 3).n_states == 3 ** 5


def test_with_epsilon():
    spec = ChainSpec("PF", 6, 2)
    flipped = spec.with_epsilon(-1)
    assert flipped.epsilon == -1
    assert flipped.family == spec.family and flipped.n_spins == spec.n_spins
    assert spec.epsilon == 1  # original untouched


def test_json_round_trip():
    for spec in (
        ChainSpec("HS", 6, 3, epsilon=-1),
        ChainSpec("FI", 5, 2, alpha=Fraction(7, 3)),
    ):
        assert ChainSpec.from_json_dict(spec.to_json_dict()) == spec
        assert ChainSpec.from_json(spec.to_json()) == spec


def test_json_accepts_lowercase_family():
    spec = ChainSpec.from_json_dict({"family": "pf", "N": 4, "m": 2, "epsilon": 1})
    assert spec.family == "PF"


def test_json_integers_are_not_truncated():
    assert ChainSpec.from_json('{"family": "HS", "N": "4", "m": 2.0}') == ChainSpec("HS", 4, 2)
    for field, value in (("N", 4.9), ("m", 2.7), ("epsilon", -1.5), ("N", True),
                         ("m", "2.5"), ("N", 1e400)):
        data = {"family": "HS", "N": 4, "m": 2, field: value}
        with pytest.raises(ValidationError):
            ChainSpec.from_json_dict(data)


def test_normalized_weights_match_their_exact_squares():
    spec = ChainSpec("FI", 7, 3, alpha=Fraction(3, 2))
    sigma2 = Fraction(55, 7)  # any positive rational will do here
    gam = normalized_dispersion(spec, math.sqrt(sigma2))
    exact_sq = exact_normalized_dispersion(spec, sigma2)
    assert np.allclose(gam ** 2, [float(g) for g in exact_sq], rtol=1e-13, atol=0)


def test_normalized_weights_scale_inversely_with_sigma():
    spec = ChainSpec("HS", 8, 2)
    base = normalized_dispersion(spec, 1.0)
    assert np.allclose(normalized_dispersion(spec, 4.0), base / 4.0, rtol=1e-15)
