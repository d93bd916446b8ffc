from fractions import Fraction

import pytest
from mpmath import mp

from gefp_lab.backends import to_float
from gefp_lab.errors import BadIndex, TooLarge, Unsupported
from gefp_lab.gefp import (efp_special_case, gefp_determinant_jets, gefp_residue,
                           pole_deformation_check, residue_workspace)
from gefp_lab.hfun import boundary_H_table_oracle
from gefp_lab.oracle import (WeightGrid, YoungProfile, all_profiles, gefp_oracle)
from gefp_lab.params import VertexWeights, delta_t_from_trig

D0, T0 = Fraction(1, 2), Fraction(1)


def test_residue_matches_oracle_exactly():
    w = VertexWeights.from_delta_t(D0, T0)
    grid = WeightGrid.from_weights(3, w)
    for r in ((1,), (2,), (2, 3), (1, 2, 3), (3, 3)):
        prof = YoungProfile(3, r)
        assert gefp_residue(3, prof, D0, T0).value == gefp_oracle(grid, prof).value


def test_residue_vanishes_for_blocked_profiles():
    for r in ((1, 1), (2, 2, 2), (1, 2, 2)):
        prof = YoungProfile(3, r)
        assert gefp_residue(3, prof, D0, T0).value == 0


def test_residue_single_row_is_cumulative_boundary():
    w = VertexWeights.from_delta_t(Fraction(1, 3), Fraction(3, 4))
    table = boundary_H_table_oracle(4, w)
    running = Fraction(0)
    previous = Fraction(0)
    for r in range(1, 5):
        running += table.values[r - 1]
        val = gefp_residue(4, YoungProfile(4, (r,)), Fraction(1, 3),
                           Fraction(3, 4)).value
        assert val == running
        assert val >= previous
        previous = val


def test_residue_empty_profile():
    assert gefp_residue(3, YoungProfile(3, ()), D0, T0).value == 1


def test_residue_bounds_at_physical_points():
    for delta, t in ((D0, T0), (Fraction(-1), Fraction(2, 3))):
        for n in (2, 3, 4):
            for prof in all_profiles(n):
                val = gefp_residue(n, prof, delta, t).value
                assert 0 <= val <= 1


def test_residue_nonphysical_point_still_rational():
    val = gefp_residue(3, YoungProfile(3, (2, 3)), Fraction(3, 2),
                       Fraction(1, 2)).value
    assert isinstance(val, Fraction)
    grid = WeightGrid.from_weights(
        3, VertexWeights.from_delta_t(Fraction(3, 2), Fraction(1, 2),
                                      allow_nonphysical=True))
    assert val == gefp_oracle(grid, YoungProfile(3, (2, 3))).value


def test_residue_float_backend_matches_exact():
    with mp.workprec(128):
        delta, t = mp.mpf("0.5"), mp.mpf(1)
        prof = YoungProfile(3, (2, 3))
        vf = gefp_residue(3, prof, delta, t, "float").value
        ve = gefp_residue(3, prof, D0, T0).value
        assert abs(vf - mp.mpf(ve.numerator) / ve.denominator) < mp.mpf("1e-30")


def test_float_residue_accepts_exact_scalars():
    # N <= 3: the float engine loses about 25 bits at N = 4 (ROADMAP item 2)
    with mp.workprec(128):
        tol = mp.mpf(2) ** (16 - mp.prec)
        for n in range(1, 4):
            for prof in all_profiles(n):
                vf = gefp_residue(n, prof, Fraction(1, 3), Fraction(3, 4), "float").value
                ve = gefp_residue(n, prof, Fraction(1, 3), Fraction(3, 4)).value
                assert abs(vf - to_float(ve)) <= tol * abs(to_float(ve))


def test_coefficient_equals_brute_force_convolution():
    for s in range(1, 5):
        ws = residue_workspace(4, s, Fraction(1, 3), Fraction(3, 4))
        for prof in all_profiles(4, s):
            target = tuple(rj - 1 for rj in prof.r)
            brute = Fraction(0)
            for idx, v in ws.prefactor.items():
                rem = tuple(a - b for a, b in zip(target, idx))
                if all(x >= 0 for x in rem):
                    brute += v * ws.h.coeff(rem)
            assert ws.coefficient(prof) == brute


def test_jets_matches_oracle():
    with mp.workprec(128):
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        w = VertexWeights.from_abc(mp.sin(lam + eta), mp.sin(lam - eta),
                                   mp.sin(2 * eta))
        for n in (1, 2, 3, 4):
            grid = WeightGrid.from_weights(n, w)
            for prof in all_profiles(n):
                jv = gefp_determinant_jets(n, prof, lam, eta).value
                ov = gefp_oracle(grid, prof).value
                assert abs(jv - ov) <= mp.mpf("1e-16") * max(1, abs(ov))


def test_jets_full_row_is_one():
    with mp.workprec(128):
        val = gefp_determinant_jets(4, YoungProfile(4, (4,)), mp.mpf("1.2"),
                                    mp.mpf("0.3")).value
        assert abs(val - 1) < mp.mpf("1e-18")


def test_jets_matches_residue_through_parameter_conversion():
    with mp.workprec(128):
        for lam_s, eta_s in (("1.1", "0.35"), ("1.45", "0.62")):
            lam, eta = mp.mpf(lam_s), mp.mpf(eta_s)
            delta, t = delta_t_from_trig(lam, eta)
            for n in (1, 2, 3, 4):
                for prof in all_profiles(n):
                    jv = gefp_determinant_jets(n, prof, lam, eta).value
                    rv = gefp_residue(n, prof, delta, t, "float",
                                      lam=lam, eta=eta).value
                    assert abs(jv - rv) <= mp.mpf("1e-14") * max(1, abs(rv))
        # N = 5 spot checks, including a full-length profile
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        delta, t = delta_t_from_trig(lam, eta)
        for r in ((3, 5), (2, 3, 4), (1, 2, 3, 4, 5)):
            prof = YoungProfile(5, r)
            jv = gefp_determinant_jets(5, prof, lam, eta).value
            rv = gefp_residue(5, prof, delta, t, "float", lam=lam, eta=eta).value
            assert abs(jv - rv) <= mp.mpf("1e-14") * max(1, abs(rv))


def test_jets_s_cap():
    with mp.workprec(64):
        with pytest.raises(TooLarge):
            gefp_determinant_jets(7, YoungProfile(7, (1,) * 7), mp.mpf("1.1"),
                                  mp.mpf("0.35"))


def test_efp_wrapper():
    assert (efp_special_case(3, 1, 2, "residue", delta=D0, t=T0).value
            == gefp_residue(3, YoungProfile(3, (2,)), D0, T0).value)
    ice_grid = WeightGrid.from_weights(
        4, VertexWeights.from_abc(Fraction(1), Fraction(1), Fraction(1)))
    assert (efp_special_case(4, 2, 3, "residue", delta=D0, t=T0).value
            == gefp_oracle(ice_grid, YoungProfile(4, (3, 3))).value)
    assert efp_special_case(3, 3, 3, "residue", delta=D0, t=T0).value == 1
    with pytest.raises(BadIndex):
        efp_special_case(3, 1, 4, "residue", delta=D0, t=T0)
    with pytest.raises(Unsupported):
        efp_special_case(3, 1, 2, "quadrature", delta=D0, t=T0)


def test_efp_equal_positions_match_jets_engine():
    with mp.workprec(128):
        lam, eta = mp.mpf("1.2"), mp.mpf("0.3")
        delta, t = delta_t_from_trig(lam, eta)
        jv = efp_special_case(4, 2, 3, "jets", lam=lam, eta=eta).value
        rv = gefp_residue(4, YoungProfile(4, (3, 3)), delta, t, "float",
                          lam=lam, eta=eta).value
        assert abs(jv - rv) <= mp.mpf("1e-14") * max(1, abs(rv))


def test_pole_deformation_reports():
    d, t = Fraction(1, 3), Fraction(3, 4)
    rep = pole_deformation_check(3, YoungProfile(3, (2, 3)), d, t)
    assert rep.ok and rep.balanced and rep.residue_at_one_matches
    assert rep.pole_contributions_zero == [True]
    assert rep.value == rep.reduced_value
    rep = pole_deformation_check(2, YoungProfile(2, (2,)), d, t)
    assert rep.ok and rep.reduced_value == 1
    rep = pole_deformation_check(4, YoungProfile(4, (2, 3, 4)), d, t)
    assert rep.ok and len(rep.pole_contributions_zero) == 2


def test_pole_deformation_requires_boundary_profile():
    with pytest.raises(BadIndex):
        pole_deformation_check(3, YoungProfile(3, (2, 2)), D0, T0)
    with pytest.raises(Unsupported):
        pole_deformation_check(3, YoungProfile(3, (2, 3)), 0.5, 1.0)


def test_workspace_cache_reuse():
    ws1 = residue_workspace(4, 2, D0, T0)
    ws2 = residue_workspace(4, 2, D0, T0)
    assert ws1 is ws2


def test_residue_profile_mismatch():
    with pytest.raises(BadIndex):
        gefp_residue(4, YoungProfile(3, (2,)), D0, T0)
