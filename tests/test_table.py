"""The array-backed density table: its layout, its artifact text and its
equality."""

from fractions import Fraction

import numpy as np
import pytest

from hschain import ChainSpec, DensityTable, ValidationError, format_rational
from hschain.density import density_dp
from small_tables import table_of


@pytest.mark.parametrize("spec", [
    ChainSpec("HS", 24, 3),
    ChainSpec("FI", 20, 3, -1, Fraction(3, 2)),
    ChainSpec("FI", 20, 3, alpha=Fraction(5, 3)),  # scale 3: unreduced p/q would show
])
def test_artifact_text_equals_the_levelwise_rationals(spec):
    table = density_dp(spec)
    texts = [format_rational(Fraction(e, table.energy_scale)) for e, _ in table.items()]
    assert table.to_csv(["head"]) == "\n".join(
        ["# head", "energy,degeneracy", *(f"{t},{d}" for t, (_, d) in zip(texts, table.items())),
         ""])
    payload = table.to_json_dict()
    assert list(payload["levels"].items()) == [(t, d) for t, (_, d) in zip(texts, table.items())]
    assert (payload["energy_scale"], payload["total"]) == (table.energy_scale, table.total)


def test_both_artifacts_share_one_energy_text_pass(monkeypatch):
    table = density_dp(ChainSpec("FI", 12, 3, alpha=Fraction(5, 3)))
    calls = []
    gcd = np.gcd
    monkeypatch.setattr(np, "gcd", lambda *args: calls.append(args) or gcd(*args))
    csv, payload = table.to_csv(), table.to_json_dict()
    assert len(calls) == 1
    assert csv.splitlines()[1].split(",")[0] == next(iter(payload["levels"]))


def test_layout_is_two_aligned_arrays():
    table = table_of({6: 1, 0: 5, 4: 4, 3: 6, 5: 0})
    assert table.levels().dtype == np.int64
    assert table.levels().tolist() == [0, 3, 4, 6]
    assert table.degeneracies == (5, 6, 4, 1)
    assert (len(table), table.total) == (4, 16)
    with pytest.raises(ValueError):
        table.levels()[0] = 1  # the level array is read-only


def test_constructor_rejects_broken_layouts():
    with pytest.raises(ValidationError):
        DensityTable(np.array([0, 1]), (1,), 1, 1)  # lengths differ
    with pytest.raises(ValidationError):
        DensityTable(np.array([1, 0]), (1, 1), 1, 2)  # not ascending
    with pytest.raises(ValidationError):
        DensityTable(np.array([0, 0]), (1, 1), 1, 2)  # repeated level
    with pytest.raises(ValidationError):
        DensityTable(np.array([0, 1]), (2, 0), 1, 2)  # zero degeneracy
    with pytest.raises(ValidationError):
        DensityTable(np.array([0, 1]), (1, 1), 1, 3)  # wrong total


def test_equality_compares_every_field_as_it_is():
    table = table_of({0: 1, 1: 2, 2: 1})
    assert table == table_of({2: 1, 0: 1, 1: 2})
    assert table != table_of({0: 1, 1: 2, 3: 1})  # a level differs
    assert table != table_of({0: 2, 1: 1, 2: 1})  # a degeneracy differs
    # the same levels on another grid are another density
    assert table != table_of({0: 1, 1: 2, 2: 1}, energy_scale=2)
    assert table.__eq__("not a table") is NotImplemented
