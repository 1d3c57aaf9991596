"""Property tests of the exact density and its level support over random
chains.  Examples are derandomized, so every run checks the same chains."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hschain import ChainSpec, dispersion
from hschain.density import density_dp, level_support

FAMILIES = [("HS", None), ("PF", None), ("FI", Fraction(1)), ("FI", Fraction(3, 2)),
            ("FI", Fraction(2)), ("FI", Fraction(5, 3))]

chains = st.builds(
    lambda family, n, m, eps: ChainSpec(family[0], n, m, eps, family[1]),
    st.sampled_from(FAMILIES),
    st.integers(2, 40),
    st.integers(1, 4),
    st.sampled_from((1, -1)),
)

properties = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@properties
@given(chains)
def test_support_is_the_set_of_dp_levels(spec):
    assert level_support(spec).levels().tolist() == density_dp(spec).levels()


@properties
@given(chains)
def test_degeneracies_sum_to_the_state_count(spec):
    table = density_dp(spec)
    assert table.total == spec.m ** spec.n_spins
    assert sum(table.entries.values()) == spec.m ** spec.n_spins


@properties
@given(chains)
def test_sign_flip_reflects_levels_through_the_top_energy(spec):
    ferro, anti = spec.with_epsilon(1), spec.with_epsilon(-1)
    top = dispersion(spec).scaled_total
    assert density_dp(anti).entries == {top - e: d for e, d in density_dp(ferro).entries.items()}
    assert np.array_equal(level_support(anti).levels(), top - level_support(ferro).levels()[::-1])
