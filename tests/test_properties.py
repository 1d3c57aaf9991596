"""Property tests of the exact density, its level support, its moments and
the characteristic function over random chains.  Examples are
derandomized, so every run checks the same chains."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hschain import ChainSpec, closed_form_moments, dispersion, empirical_moments
from hschain.density import composition_density, density_dp, level_support
from hschain.transfer import charfn_exact
from small_tables import table_of

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
    assert np.array_equal(level_support(spec).levels(), density_dp(spec).levels())


@properties
@given(chains)
def test_degeneracies_sum_to_the_state_count(spec):
    table = density_dp(spec)
    assert table.total == spec.m ** spec.n_spins
    assert sum(table.degeneracies) == spec.m ** spec.n_spins


@properties
@given(chains)
def test_sign_flip_reflects_levels_through_the_top_energy(spec):
    # the antiferro DP is the reflected ferro recursion, so the composition
    # sum, which applies the antiferro sign itself, is the reference
    ferro, anti = replace(spec, epsilon=1), replace(spec, epsilon=-1)
    top = dispersion(spec).scaled_total
    direct = composition_density(anti)
    assert dict(direct.items()) == {top - e: d for e, d in density_dp(ferro).items()}
    assert density_dp(anti) == direct
    support = direct.levels()
    assert np.array_equal(support, top - level_support(ferro).levels()[::-1])
    assert np.array_equal(level_support(anti).levels(), support)


@properties
@given(chains)
def test_density_moments_equal_the_closed_form(spec):
    sampled, closed = empirical_moments(density_dp(spec)), closed_form_moments(spec)
    assert (sampled.mu, sampled.sigma2) == (closed.mu, closed.sigma2)


@properties
@given(chains.filter(lambda spec: spec.m > 1),
       st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8))
def test_charfn_at_minus_t_is_the_conjugate(spec, points):
    t = np.array(points)
    forward, backward = charfn_exact(spec, t_grid=t), charfn_exact(spec, t_grid=-t)
    np.testing.assert_allclose(backward, np.conj(forward), rtol=0, atol=1e-12)


@properties
@given(chains)
def test_levels_ascend_and_the_table_rebuilds_from_its_items(spec):
    table = density_dp(spec)
    levels = table.levels()
    assert levels.dtype == np.int64
    assert np.all(levels[1:] > levels[:-1])
    assert table_of(dict(table.items()), table.energy_scale) == table
