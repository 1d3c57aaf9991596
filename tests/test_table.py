"""The array-backed density table: its layout, its artifact text and its
equality."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hschain.table
from hschain import ChainSpec, DensityTable, ValidationError, format_rational
from hschain.density import density_dp
from hschain.table import json_pieces
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
    levels = dict(zip(texts, table.degeneracies))
    for pad in ("", "    "):
        assert "".join(json_pieces(payload["levels"], pad)) == json.dumps(
            levels, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    assert (payload["energy_scale"], payload["total"]) == (table.energy_scale, table.total)


def test_both_artifacts_share_one_energy_text_pass(monkeypatch):
    table = density_dp(ChainSpec("FI", 12, 3, alpha=Fraction(5, 3)))
    calls = []
    gcd = np.gcd
    monkeypatch.setattr(np, "gcd", lambda *args: calls.append(args) or gcd(*args))
    csv, levels = table.to_csv(), json.loads("".join(json_pieces(table.to_json_dict()["levels"])))
    assert len(calls) == 1
    assert {text: int(d) for text, d in (line.split(",") for line in csv.splitlines()[1:])} == levels


# 0 and the levels on each side of a change in the digit count, of either sign;
# small levels share reduced numerators over different denominators
EDGES = sorted({sign * (10 ** k + step) for k in range(19) for step in (-1, 0, 1)
                for sign in (1, -1)} | {9, 99, -9, -99})
tables = st.builds(
    lambda pairs, scale: table_of(dict(pairs), energy_scale=scale),
    st.lists(st.tuples(st.one_of(st.integers(-10 ** 18, 10 ** 18), st.sampled_from(EDGES),
                                 st.integers(-60, 60)),
                       st.integers(1, 2 ** 130)), max_size=80, unique_by=lambda pair: pair[0]),
    st.integers(1, 12),  # suffixes such as /2, /3 and /6 mix
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tables)
@example(table_of({1: 1, 4: 2, 6: 3, -12: 4, -10: 5}, energy_scale=12))  # "/12" before "/2"
def test_both_artifacts_equal_the_levelwise_text_of_any_table(table):
    texts = [format_rational(Fraction(e, table.energy_scale)) for e in table.levels().tolist()]
    assert table.to_csv() == "".join(
        ["energy,degeneracy\n", *(f"{t},{d}\n" for t, d in zip(texts, table.degeneracies))])
    assert "".join(json_pieces(table.to_json_dict()["levels"])) == json.dumps(
        dict(zip(texts, table.degeneracies)), indent=2, sort_keys=True)


def test_an_empty_table_writes_an_empty_levels_object():
    levels = table_of({}).to_json_dict()["levels"]
    assert list(levels(",\n    ")) == []
    assert "".join(json_pieces(levels, "  ")) == json.dumps({}, indent=2)


@pytest.mark.parametrize("pad", ["", "    "])
@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 8193])
def test_both_artifacts_join_their_pieces_at_every_piece_boundary(count, pad):
    assert hschain.table._PIECE_LEVELS == 4096
    table = table_of({3 * k - count: 2 ** 70 + k for k in range(count)}, energy_scale=2)
    texts = [format_rational(Fraction(e, 2)) for e in table.levels().tolist()]
    assert table.to_csv(["head"]) == "".join(
        ["# head\nenergy,degeneracy\n", *(f"{t},{d}\n" for t, d in zip(texts, table.degeneracies))])
    levels = table.to_json_dict()["levels"]
    assert len(list(levels(f",\n{pad}  "))) == -(-count // 4096)
    assert "".join(json_pieces(levels, pad)) == json.dumps(
        dict(zip(texts, table.degeneracies)), indent=2, sort_keys=True).replace("\n", "\n" + pad)


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
