import random
from fractions import Fraction

import pytest
from mpmath import mp

from gefp_lab.algebra import UniPoly
from gefp_lab.errors import BadIndex, BranchPole, DuplicateRapidity
from gefp_lab.hfun import (HTable, OmegaRho, boundary_H_table_oracle,
                           boundary_H_table_via_K, boundary_H_via_K,
                           build_h_tables, h_generating, h_multivariate,
                           h_polynomial, h_via_inhomogeneous_Z, kfint_check,
                           reflect_substitute)
from gefp_lab.params import VertexWeights

LAM, ETA = "1.1", "0.35"


def test_boundary_H_via_K_forced_case():
    with mp.workprec(128):
        assert abs(boundary_H_via_K(1, 1, mp.mpf("0.9"), mp.mpf("0.3")) - 1) \
            < mp.mpf("1e-30")


def test_boundary_H_via_K_ice_point():
    with mp.workprec(128):
        lam, eta = mp.pi / 2, mp.pi / 6
        expect = [mp.mpf(2) / 7, mp.mpf(3) / 7, mp.mpf(2) / 7]
        for r in (1, 2, 3):
            assert abs(boundary_H_via_K(3, r, lam, eta) - expect[r - 1]) \
                < mp.mpf("1e-20")


def test_boundary_H_table_sums_to_one():
    with mp.workprec(128):
        table = boundary_H_table_via_K(4, mp.pi / 2, mp.mpf("0.35"))
        assert abs(sum(table.values) - 1) < mp.mpf("1e-22")


def test_boundary_H_via_K_matches_oracle():
    with mp.workprec(128):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        w = VertexWeights.from_abc(mp.sin(lam + eta), mp.sin(lam - eta),
                                   mp.sin(2 * eta))
        for n in (1, 2, 3, 4):
            via_k = boundary_H_table_via_K(n, lam, eta)
            orc = boundary_H_table_oracle(n, w)
            for x, y in zip(via_k.values, orc.values):
                assert abs(x - y) <= mp.mpf("1e-20") * max(1, abs(y))


def test_omega_rho_identities():
    with mp.workprec(128):
        fns = OmegaRho(mp.mpf(LAM), mp.mpf(ETA))
        order = 8
        om = fns.omega(order)
        rho = fns.rho(order)
        omt = fns.omega_tilde(order)
        rhot = fns.rho_tilde(order)
        assert abs(om.coeffs[0]) < mp.mpf("1e-36")          # omega(0) = 0
        # rho * (omega - 1) = 1
        prod = rho * (om - 1)
        assert abs(prod.coeffs[0] - 1) < mp.mpf("1e-34")
        assert all(abs(c) < mp.mpf("1e-32") for c in prod.coeffs[1:])
        # omega_tilde * (2 t Delta omega - 1) = t^2 omega
        lhs = omt * (om * (2 * fns.t * fns.delta) - 1)
        rhs = om * (fns.t ** 2)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            assert abs(x - y) < mp.mpf("1e-30")
        # rho_tilde * (1 - omega_tilde) = 1
        prod = rhot * (1 - omt)
        assert abs(prod.coeffs[0] - 1) < mp.mpf("1e-34")
        assert all(abs(c) < mp.mpf("1e-32") for c in prod.coeffs[1:])


def test_h_generating_examples():
    table = HTable(1, (Fraction(1),), "exact")
    assert h_generating(table).coeffs == [1]
    ice = VertexWeights.from_abc(Fraction(1), Fraction(1), Fraction(1))
    table2 = boundary_H_table_oracle(2, ice)
    assert h_generating(table2).coeffs == [Fraction(1, 2), Fraction(1, 2)]
    for n in (2, 3, 4):
        t = boundary_H_table_oracle(n, ice)
        assert h_generating(t)(Fraction(1)) == 1


def test_htable_length_validation():
    with pytest.raises(BadIndex):
        HTable(3, (Fraction(1),), "exact")


def test_kfint_identity():
    with mp.workprec(128):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        lhs, rhs = kfint_check(2, UniPoly([mp.mpf(1)]), lam, eta)
        assert abs(lhs - rhs) < mp.mpf("1e-25")
        # f = z^N: both sides vanish
        lhs, rhs = kfint_check(3, UniPoly([0, 0, 0, mp.mpf(1)]), lam, eta)
        assert abs(lhs) < mp.mpf("1e-25") and abs(rhs) < mp.mpf("1e-25")
        lhs, rhs = kfint_check(3, UniPoly([0, mp.mpf(1)]), lam, eta)
        assert abs(lhs - rhs) <= mp.mpf("1e-20") * max(1, abs(lhs))


def test_h_multivariate_single_variable():
    tabs = build_h_tables(3, 1, delta=Fraction(1, 3), t=Fraction(3, 4))
    z = Fraction(2, 7)
    assert h_multivariate(tabs, 3, 1, [z]) == tabs[3].polynomial()(z)


def test_h_multivariate_symmetry():
    rng = random.Random(1)
    tabs = build_h_tables(3, 2, delta=Fraction(1, 3), t=Fraction(3, 4))
    for _ in range(4):
        z1 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        z2 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if z1 == z2:
            continue
        assert (h_multivariate(tabs, 3, 2, [z1, z2])
                == h_multivariate(tabs, 3, 2, [z2, z1]))


def test_h_multivariate_specialization_at_one():
    tabs = build_h_tables(3, 2, delta=Fraction(1, 3), t=Fraction(3, 4))
    z = Fraction(5, 9)
    left = h_multivariate(tabs, 3, 2, [z, Fraction(1)])
    right = tabs[3].polynomial()(z)
    assert left == right


def test_h_multivariate_confluent_matches_polynomial():
    tabs = build_h_tables(4, 3, delta=Fraction(1, 3), t=Fraction(3, 4))
    hp = h_polynomial(tabs, 4, 3)
    z = [Fraction(2, 5), Fraction(2, 5), Fraction(-1, 3)]
    direct = h_multivariate(tabs, 4, 3, z)
    ev = Fraction(0)
    for idx, v in hp.items():
        term = v
        for val, m in zip(z, idx):
            term *= val ** m
        ev += term
    assert direct == ev
    # fully coincident arguments at 1 collapse through the specialization chain
    assert h_multivariate(tabs, 4, 3, [Fraction(1)] * 3) == 1


def test_h_polynomial_divide_equals_interpolate():
    for (n, s) in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 3)):
        tabs = build_h_tables(n, s, delta=Fraction(2, 5), t=Fraction(5, 6))
        hd = h_polynomial(tabs, n, s, method="divide")
        hi = h_polynomial(tabs, n, s, method="interpolate")
        assert all(hd.coeff(i) == v for i, v in hi.items())
        assert all(hi.coeff(i) == v for i, v in hd.items())


def test_h_polynomial_degree_bound():
    # the divide route would raise if any degree exceeded N-1; check through N=5
    for (n, s) in ((3, 2), (4, 3), (4, 4), (5, 2)):
        tabs = build_h_tables(n, s, delta=Fraction(1, 3), t=Fraction(3, 4))
        h = h_polynomial(tabs, n, s, method="divide")
        for var in range(s):
            assert h.max_degree(var) <= n - 1


def test_h_multivariate_s_cap():
    tabs = build_h_tables(2, 2, delta=Fraction(1, 3), t=Fraction(3, 4))
    with pytest.raises(BadIndex):
        h_multivariate(tabs, 2, 3, [Fraction(1)] * 3)


def test_reflection_simple_zero_exact():
    delta, t = Fraction(1, 3), Fraction(3, 4)
    for (n, s) in ((2, 2), (3, 2), (3, 3)):
        tabs = build_h_tables(n, s, delta=delta, t=t)
        h = h_polynomial(tabs, n, s)
        for j in range(s - 1):
            refl = reflect_substitute(h, j, delta, t)
            # entire in z_j and vanishing at z_j = 0: nothing at or below N-1
            assert all(v == 0 for idx, v in refl.items() if idx[j] <= n - 1)
            # a genuinely linear zero: the next layer is populated
            assert any(idx[j] == n for idx, v in refl.items() if v != 0)


def test_h_via_inhomogeneous_Z_matches_h_multivariate():
    with mp.workprec(128):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        tabs = build_h_tables(2, 2, lam=lam, eta=eta, backend="float")
        z = [mp.mpf("0.3"), mp.mpf("0.6")]
        hv = h_via_inhomogeneous_Z(z, lam, eta)
        hm = h_multivariate(tabs, 2, 2, z)
        assert abs(hv - hm) <= mp.mpf("1e-18") * max(1, abs(hm))
        tabs3 = build_h_tables(3, 3, lam=lam, eta=eta, backend="float")
        z3 = [mp.mpf("0.3"), mp.mpf("0.6"), mp.mpf("-0.4")]
        hv3 = h_via_inhomogeneous_Z(z3, lam, eta)
        hm3 = h_multivariate(tabs3, 3, 3, z3)
        assert abs(hv3 - hm3) <= mp.mpf("1e-18") * max(1, abs(hm3))


def test_h_via_inhomogeneous_Z_simple_zero_slope():
    with mp.workprec(160):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        fns = OmegaRho(lam, eta)
        delta, t = fns.delta, fns.t
        vals = []
        for z1 in (mp.mpf("1e-6"), mp.mpf("5e-7")):
            z2 = (2 * delta * t * z1 - 1) / (t * t * z1)
            vals.append(abs(h_via_inhomogeneous_Z([z1, z2], lam, eta)))
        # |h| = O(z1): halving z1 roughly halves the value
        ratio = vals[1] / vals[0]
        assert mp.mpf("0.4") < ratio < mp.mpf("0.6")


def test_h_via_inhomogeneous_Z_errors():
    with mp.workprec(96):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        t = mp.sin(lam - eta) / mp.sin(lam + eta)
        with pytest.raises(BranchPole):
            h_via_inhomogeneous_Z([1 / t, mp.mpf("0.2")], lam, eta)
        with pytest.raises(DuplicateRapidity):
            h_via_inhomogeneous_Z([mp.mpf("0.2"), mp.mpf("0.2")], lam, eta)


def test_float_h_tables_match_exact_at_rational_point():
    # cross-backend: K-contraction tables against the oracle through (Delta, t)
    with mp.workprec(128):
        delta, t = mp.mpf("0.5"), mp.mpf(1)
        from gefp_lab.params import lambda_eta_from_delta_t
        lam, eta = lambda_eta_from_delta_t(delta, t)
        tab_f = boundary_H_table_via_K(3, lam, eta)
        tab_e = boundary_H_table_oracle(
            3, VertexWeights.from_delta_t(Fraction(1, 2), Fraction(1)))
        for x, y in zip(tab_f.values, tab_e.values):
            assert abs(x - mp.mpf(y.numerator) / y.denominator) < mp.mpf("1e-30")
