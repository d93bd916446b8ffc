"""Property tests over random rational (Delta, t) points, random physical
trig points (lambda, eta) and profiles, N <= 4 (N <= 5 for the float residue
and jets engines).

Examples are derandomized, so every run draws the same points and tier-1
output stays deterministic.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from gefp_lab.backends import EXACT, FLOAT, to_float
from gefp_lab.gefp import gefp_determinant_jets, gefp_residue
from gefp_lab.oracle import (WeightGrid, YoungProfile, all_profiles, gefp_oracle,
                             reduced_partition_oracle)
from gefp_lab.params import VertexWeights, weights_from_trig
from residue_reference import _z_series

N_MAX = 4

property_settings = settings(derandomize=True, database=None, deadline=None,
                             max_examples=40)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def profiles(draw, n_max=N_MAX):
    n = draw(st.integers(1, n_max))
    r = draw(st.lists(st.integers(1, n), min_size=1, max_size=n))
    return YoungProfile(n, sorted(r))


def _grid(delta, t, n):
    """Weights at (delta, t); skips points where t, c^2 or some Z_m vanishes."""
    assume(t != 0 and 1 + t * t - 2 * t * delta != 0)
    w = VertexWeights.from_delta_t(delta, t, allow_nonphysical=True)
    assume(all(reduced_partition_oracle(WeightGrid.from_weights(m, w)) != 0
               for m in range(1, n + 1)))
    return WeightGrid.from_weights(n, w)


def _is_physical(delta, t):
    return t > 0 and 1 + t * t - 2 * t * delta > 0


@property_settings
@given(rationals, rationals, profiles())
def test_residue_equals_oracle(delta, t, profile):
    grid = _grid(delta, t, profile.N)
    value = gefp_residue(profile.N, profile, delta, t, EXACT).value
    assert value == gefp_oracle(grid, profile).value


@property_settings
@given(rationals, rationals, profiles())
def test_vanishing_iff_blocked(delta, t, profile):
    _grid(delta, t, profile.N)
    value = gefp_residue(profile.N, profile, delta, t, EXACT).value
    if profile.blocked:
        assert value == 0
    elif _is_physical(delta, t):
        assert value != 0


@property_settings
@given(rationals, rationals, profiles())
def test_boundary_row_reduction(delta, t, profile):
    n = profile.N
    _grid(delta, t, n)
    full = YoungProfile(n, profile.r[:-1] + (n,))
    assert (gefp_residue(n, full, delta, t, EXACT).value
            == gefp_residue(n, full.reduced(), delta, t, EXACT).value)


numerators = st.integers(-50, 50)
denominators = st.integers(1, 50)


@property_settings
@given(numerators, denominators, numerators, denominators)
def test_exact_residue_equals_unscaled_route(p, q, u, v):
    # the same kernels on Fraction in z (B = 1) against the integer route in
    # w, for every profile with N <= 4
    delta, t = Fraction(p, q), Fraction(u, v)
    _grid(delta, t, N_MAX)
    for n in range(1, N_MAX + 1):
        for s in range(1, n + 1):
            unscaled = _z_series(n, s, delta, t)
            for profile in all_profiles(n, s):
                assert (gefp_residue(n, profile, delta, t, EXACT).value
                        == unscaled.coefficient(profile))


@property_settings
@given(rationals, st.fractions(min_value=Fraction(1, 6), max_value=3,
                               max_denominator=6), profiles())
def test_probability_bounds_at_physical_points(delta, t, profile):
    assume(_is_physical(delta, t))
    _grid(delta, t, profile.N)
    value = gefp_residue(profile.N, profile, delta, t, EXACT).value
    assert 0 <= value <= 1


@property_settings
@given(st.fractions(min_value=-2, max_value=2, max_denominator=6),
       st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
       profiles(5))
def test_float_residue_matches_exact(delta, t, profile):
    # the error is relative, and absolute where the value is 0
    assume(_is_physical(delta, t))
    exact = gefp_residue(profile.N, profile, delta, t, EXACT).value
    with mp.workprec(128):
        value = gefp_residue(profile.N, profile, delta, t, FLOAT).value
        exact = to_float(exact)
        assert abs(value - exact) <= mp.mpf(2) ** (16 - mp.prec) * (abs(exact) or 1)


@property_settings
@given(st.integers(1, 99), st.integers(1, 99), profiles(5))
def test_jets_matches_float_oracle(u, v, profile):
    # 0 < eta < pi/2 and eta < lambda < pi - eta, so a, b, c = sin(lambda +- eta),
    # sin(2 eta) are all positive: the point is physical
    with mp.workprec(128):
        eta = mp.pi / 2 * u / 100
        lam = eta + (mp.pi - 2 * eta) * v / 100
        n = profile.N
        grid = WeightGrid.from_weights(n, weights_from_trig(lam, 0, eta))
        expect = gefp_oracle(grid, profile).value
        value = gefp_determinant_jets(n, profile, lam, eta).value
        assert abs(value - expect) <= mp.mpf(2) ** (20 - mp.prec) * abs(expect)
