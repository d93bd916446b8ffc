import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from mpmath import mp

from gefp_lab import gefp, oracle
from gefp_lab.algebra import Jet, UniPoly, _minors, perm_sign
from gefp_lab.backends import to_exact, to_float
from gefp_lab.errors import BadIndex, BranchPole, DivisionByZero, DuplicateRapidity
from gefp_lab.gefp import OmegaRho, gefp_determinant_jets, jets_inputs, jets_workspace
from gefp_lab.hfun import (_kostka, boundary_H_table_via_K, build_h_tables,
                           h_multivariate, h_polynomial, h_via_inhomogeneous_Z,
                           kfint_check, reflect_substitute)
from gefp_lab.oracle import WeightGrid, YoungProfile, boundary_distribution_oracle
from gefp_lab.params import VertexWeights, delta_t_from_trig, lambda_eta_from_delta_t
from jets_reference import exact_contraction

LAM, ETA = "1.1", "0.35"


def test_boundary_H_via_K_forced_case():
    with mp.workprec(128):
        table = boundary_H_table_via_K(1, mp.mpf("0.9"), mp.mpf("0.3"))
        assert abs(table[0] - 1) < mp.mpf("1e-30")


def test_boundary_H_via_K_ice_point():
    with mp.workprec(128):
        lam, eta = mp.pi / 2, mp.pi / 6
        expect = [mp.mpf(2) / 7, mp.mpf(3) / 7, mp.mpf(2) / 7]
        table = boundary_H_table_via_K(3, lam, eta)
        for r in (1, 2, 3):
            assert abs(table[r - 1] - expect[r - 1]) < mp.mpf("1e-20")


def test_boundary_H_table_sums_to_one():
    with mp.workprec(128):
        table = boundary_H_table_via_K(4, mp.pi / 2, mp.mpf("0.35"))
        assert abs(sum(table) - 1) < mp.mpf("1e-22")


def test_boundary_H_via_K_matches_oracle():
    with mp.workprec(128):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        w = VertexWeights.from_abc(mp.sin(lam + eta), mp.sin(lam - eta),
                                   mp.sin(2 * eta))
        for n in (1, 2, 3, 4):
            via_k = boundary_H_table_via_K(n, lam, eta)
            orc = boundary_distribution_oracle(WeightGrid.from_weights(n, w))
            for x, y in zip(via_k, orc, strict=True):
                assert abs(x - y) <= mp.mpf("1e-20") * max(1, abs(y))


@pytest.mark.parametrize("point", ["1.1,0.35", "0.9,0.6", "trig 1/3,3/4"])
def test_boundary_H_via_K_within_2_to_the_minus_56_at_N_9_to_12(point):
    # against the exact oracle on the dyadic weights the 128-bit a, b, c hold;
    # with K rows from n + 2 determinants (0.9, 0.6) fell to 2^-49.1 at N = 11
    # and 2^-39.3 at N = 12, the Hankel factorisation keeps 2^-65.8 there
    with mp.workprec(128):
        if point.startswith("trig"):
            lam, eta = lambda_eta_from_delta_t(Fraction(1, 3), Fraction(3, 4))
        else:
            lam, eta = (mp.mpf(x) for x in point.split(","))
        a, b, c = (to_exact(x) for x in (mp.sin(lam + eta), mp.sin(lam - eta), mp.sin(2 * eta)))
        w = VertexWeights.from_abc(a, b, c)
        for n in range(9, 13):
            h, z = oracle._boundary_sums(WeightGrid.from_weights(n, w), n, cap=n)
            for x, hk in zip(boundary_H_table_via_K(n, lam, eta), h, strict=True):
                assert abs(to_exact(x) - Fraction(hk, z)) <= Fraction(hk, z) / 2 ** 56, (n, x)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_boundary_H_via_K_is_the_s1_contraction_differenced_and_rounded_once(prec):
    # H^(r) = -(c_r - c_{r-1}), c_r the s = 1 jets contraction, c_0 = 0
    with mp.workprec(prec):
        for lam, eta in ((mp.mpf(LAM), mp.mpf(ETA)), (mp.pi / 2, mp.pi / 6)):
            for n in range(1, 9):
                ws = jets_workspace(n, 1, lam, eta)
                inputs = jets_inputs(n, lam, eta)
                c = [0] + [exact_contraction(ws, (r,), inputs) for r in range(1, n + 1)]
                expect = [to_float(c[r - 1] - c[r])._mpf_ for r in range(1, n + 1)]
                assert [x._mpf_ for x in boundary_H_table_via_K(n, lam, eta)] == expect, n


def test_boundary_H_via_K_builds_no_pair_block_and_shares_its_workspace(monkeypatch):
    gefp._jets_cache.clear()
    with mp.workprec(128):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        table = boundary_H_table_via_K(8, lam, eta)
        assert "pair_block" not in vars(jets_inputs(8, lam, eta))

        def no_build(*args):
            raise AssertionError("a jets workspace was built")

        monkeypatch.setattr(gefp, "_build_jets_workspace", no_build)
        cumulative = mp.mpf(0)
        for r in range(1, 9):
            cumulative += table[r - 1]
            value = gefp_determinant_jets(8, YoungProfile(8, (r,)), lam, eta).value
            assert abs(value - cumulative) <= mp.mpf(2) ** (8 - mp.prec)


def test_omega_rho_identities():
    with mp.workprec(128):
        fns = OmegaRho(mp.mpf(LAM), mp.mpf(ETA))
        delta, t = delta_t_from_trig(LAM, ETA)
        order = 8
        om = fns.omega(order)
        rho = fns.rho(order)
        omt = fns.omega_tilde(order)
        assert abs(om.coeffs[0]) < mp.mpf("1e-36")          # omega(0) = 0
        # rho * (omega - 1) = 1
        prod = rho * (om - 1)
        assert abs(prod.coeffs[0] - 1) < mp.mpf("1e-34")
        assert all(abs(c) < mp.mpf("1e-32") for c in prod.coeffs[1:])
        # omega_tilde * (2 t Delta omega - 1) = t^2 omega
        lhs = omt * (om * (2 * t * delta) - 1)
        rhs = om * (t ** 2)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            assert abs(x - y) < mp.mpf("1e-30")
        # rho_tilde = (1 - omega_tilde)^-1 = (a/c) sin(eps + 2 eta) / sin(eps + lambda + eta)
        rhot = (1 - omt).invert()
        closed = (Jet.sin_offset(2 * fns.eta, order) * (fns.a / fns.c)
                  / Jet.sin_offset(fns.lam + fns.eta, order))
        for x, y in zip(rhot.coeffs, closed.coeffs, strict=True):
            assert abs(x - y) < mp.mpf("1e-34")


def test_h_generating_examples():
    ice = VertexWeights.from_abc(Fraction(1), Fraction(1), Fraction(1))
    tables = build_h_tables(4, 4, Fraction(1, 2), Fraction(1))
    for n in (1, 2, 3, 4):
        table = boundary_distribution_oracle(WeightGrid.from_weights(n, ice))
        assert type(table) is list and table == tables[n]
        assert UniPoly(table)(Fraction(1)) == 1
    assert UniPoly(tables[1]).coeffs == [1]
    assert UniPoly(tables[2]).coeffs == [Fraction(1, 2), Fraction(1, 2)]


def test_trig_point_with_vanishing_a_is_refused():
    # a = sin(lambda + eta) = 0: every K-route function refuses before dividing
    for build in (lambda: OmegaRho(-0.3, 0.3),
                  lambda: boundary_H_table_via_K(3, -0.3, 0.3),
                  lambda: gefp_determinant_jets(3, YoungProfile(3, (2, 3)), -0.3, 0.3)):
        with mp.workprec(128), pytest.raises(DivisionByZero):
            build()


def test_trig_point_with_vanishing_b_is_refused():
    # b = sin(lambda - eta) = 0: omega = (a/b) sin(eps) / sin(eps - 2 eta)
    for build in (lambda: boundary_H_table_via_K(3, 0.3, 0.3),
                  lambda: gefp_determinant_jets(1, YoungProfile(1, (1,)), 0.1, 0.1)):
        with mp.workprec(128), pytest.raises(DivisionByZero, match="b = sin"):
            build()


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
    assert h_multivariate(tabs, 3, 1, [z]) == UniPoly(tabs[3])(z)


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
    right = UniPoly(tabs[3])(z)
    assert left == right


def _evaluate(series, z):
    for var in reversed(range(len(z))):
        series = series.substitute_value(var, z[var])
    return series.coeff(())


def test_h_multivariate_confluent_matches_polynomial():
    tabs = build_h_tables(4, 3, delta=Fraction(1, 3), t=Fraction(3, 4))
    hp = h_polynomial(tabs, 4, 3)
    z = [Fraction(2, 5), Fraction(2, 5), Fraction(-1, 3)]
    assert h_multivariate(tabs, 4, 3, z) == _evaluate(hp, z)
    # fully coincident arguments at 1 collapse through the specialization chain
    assert h_multivariate(tabs, 4, 3, [Fraction(1)] * 3) == 1


def test_h_polynomial_matches_pointwise_determinant():
    rng = random.Random(7)
    for (n, s) in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 3), (5, 5),
                   (6, 4), (6, 6)):
        tabs = build_h_tables(n, s, delta=Fraction(2, 5), t=Fraction(5, 6))
        h = h_polynomial(tabs, n, s)
        for _ in range(4):
            z = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(s)]
            assert _evaluate(h, z) == h_multivariate(tabs, n, s, z)
            # coincident arguments: h_multivariate takes its confluent rows
            z[rng.randrange(1, s)] = z[0]
            assert _evaluate(h, z) == h_multivariate(tabs, n, s, z)


def _k_tables(n, s, lam, eta):
    """The K-route H tables of sizes n-s+1..n."""
    return {m: boundary_H_table_via_K(m, lam, eta) for m in range(n - s + 1, n + 1)}


def _box_partitions(n, s):
    """Partitions with at most s parts, each at most n - 1, padded to length s."""
    return [tuple(sorted(p, reverse=True))
            for p in combinations_with_replacement(range(n), s)]


def _hooks_and_contents(lam):
    conj = [sum(1 for part in lam if part > j) for j in range(max(lam, default=0))]
    return [(lam[i] - j + conj[j] - i - 1, j - i)
            for i in range(len(lam)) for j in range(lam[i])]


BOXES = [(n, s) for n in range(1, 7) for s in range(1, n + 1)]


def test_kostka_standard_tableaux_match_hook_length_formula():
    # K_{lambda,(1^m)} counts standard tableaux: m! / prod of hook lengths;
    # the weight (1^m) lies in the box when m <= s
    for n, s in BOXES:
        table = dict(_kostka(n - 1, s))
        for lam in _box_partitions(n, s):
            m = sum(lam)
            if m > s:
                continue
            weight = (1,) * m + (0,) * (s - m)
            hooks = math.prod(h for h, _ in _hooks_and_contents(lam))
            assert dict(table[weight]).get(lam, 0) == math.factorial(m) // hooks


def test_kostka_sums_match_hook_content_formula():
    # sum_alpha K_{lambda, sort(alpha)} over alpha in {0..n-1}^s is the number
    # of semistandard tableaux with entries 1..s: s_lambda(1^s), and a letter
    # fills at most lambda_1 <= n-1 boxes, one per column
    for n, s in BOXES:
        table = dict(_kostka(n - 1, s))
        total = {}
        for alpha in product(range(n), repeat=s):
            for lam, k in table[tuple(sorted(alpha, reverse=True))]:
                total[lam] = total.get(lam, 0) + k
        for lam in _box_partitions(n, s):
            value = math.prod(Fraction(s + c, h)
                              for h, c in _hooks_and_contents(lam))
            assert total.get(lam, 0) == value


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
        tabs = _k_tables(2, 2, lam, eta)
        z = [mp.mpf("0.3"), mp.mpf("0.6")]
        hv = h_via_inhomogeneous_Z(z, lam, eta)
        hm = h_multivariate(tabs, 2, 2, z)
        assert abs(hv - hm) <= mp.mpf("1e-18") * max(1, abs(hm))
        tabs3 = _k_tables(3, 3, lam, eta)
        z3 = [mp.mpf("0.3"), mp.mpf("0.6"), mp.mpf("-0.4")]
        hv3 = h_via_inhomogeneous_Z(z3, lam, eta)
        hm3 = h_multivariate(tabs3, 3, 3, z3)
        assert abs(hv3 - hm3) <= mp.mpf("1e-18") * max(1, abs(hm3))


def test_h_via_inhomogeneous_Z_simple_zero_slope():
    with mp.workprec(160):
        lam, eta = mp.mpf(LAM), mp.mpf(ETA)
        delta, t = delta_t_from_trig(lam, eta)
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
        lam, eta = lambda_eta_from_delta_t(delta, t)
        tab_f = boundary_H_table_via_K(3, lam, eta)
        tab_e = build_h_tables(3, 1, Fraction(1, 2), Fraction(1))[3]
        for x, y in zip(tab_f, tab_e, strict=True):
            assert abs(x - mp.mpf(y.numerator) / y.denominator) < mp.mpf("1e-30")


def test_minors_equal_leibniz_sums_on_descending_rows():
    # each minor, keyed by its row bitmask, is the determinant of the rows
    # taken in descending order, summed over permutations
    rng = random.Random(21)
    for s in range(1, 5):
        for top in range(s - 1, 7):
            cols = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(rng.randint(1, top + 2))] for _ in range(s)]
            minors = _minors(cols, top, Fraction(0))
            assert len(minors) == math.comb(top + 1, s)
            for mask, d in minors.items():
                rows = [e for e in range(top, -1, -1) if mask >> e & 1]
                entry = [[cols[k][e] if e < len(cols[k]) else 0 for k in range(s)]
                         for e in rows]
                want = sum(perm_sign(p) * math.prod(entry[i][p[i]] for i in range(s))
                           for p in permutations(range(s)))
                assert d == want, (s, top, rows)
