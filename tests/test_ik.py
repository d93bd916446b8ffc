import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from gefp_lab import ik
from gefp_lab.errors import BadIndex, DuplicateRapidity, SingularHankel, TooLarge
from gefp_lab.ik import (a_fn, b_fn, gefp_inhom_determinant, gefp_inhom_recurrence,
                         hankel_factor, homogeneous_partition_jets, ik_partition,
                         k_polynomial, partially_inhomogeneous_partition, phi_fn)
from gefp_lab.oracle import (WeightGrid, YoungProfile, gefp_oracle,
                             partition_function_oracle)
from gefp_lab.params import SpectralData
from ik_reference import hankel_det, k_polynomial_by_minors

LAM3 = ("0.31", "0.73", "1.17")
NU3 = ("0.11", "0.52", "0.26")
ETA = "0.41"


def spectral(n, eta=ETA):
    lams = [mp.mpf(x) for x in LAM3] + [mp.mpf("0.55")]
    nus = [mp.mpf(x) for x in NU3] + [mp.mpf("0.91")]
    return SpectralData(lams[:n], nus[:n], mp.mpf(eta))


def test_ik_single_site_collapses_to_c():
    with mp.workprec(128):
        spec = SpectralData([mp.mpf("0.8")], [mp.mpf("0.2")], mp.mpf("0.3"))
        z = ik_partition(spec)
        lam, nu, eta = spec.lambdas[0], spec.nus[0], spec.eta
        direct = a_fn(lam, nu, eta) * b_fn(lam, nu, eta) * phi_fn(lam, nu, eta)
        assert abs(z - mp.sin(2 * eta)) < mp.mpf("1e-36")
        assert abs(z - direct) < mp.mpf("1e-36")


def test_ik_matches_oracle_spec_point():
    with mp.workprec(128):
        spec = SpectralData(["0.3", "0.7"], ["0.1", "0.5"], "0.4")
        z = ik_partition(spec)
        zo = partition_function_oracle(WeightGrid.from_spectral(spec))
        assert abs(z - zo) / abs(zo) < mp.mpf("1e-25")


def test_ik_duplicate_rapidity():
    with mp.workprec(64):
        spec = SpectralData(["0.3", "0.3"], ["0.1", "0.5"], "0.4")
        with pytest.raises(DuplicateRapidity):
            ik_partition(spec)


def test_ik_symmetric_under_rapidity_permutations():
    with mp.workprec(128):
        spec = spectral(3)
        base = ik_partition(spec)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            lam2 = [spec.lambdas[i] for i in perm]
            nu2 = [spec.nus[i] for i in perm]
            z1 = ik_partition(SpectralData(lam2, spec.nus, spec.eta))
            z2 = ik_partition(SpectralData(spec.lambdas, nu2, spec.eta))
            assert abs(z1 - base) / abs(base) < mp.mpf("1e-33")
            assert abs(z2 - base) / abs(base) < mp.mpf("1e-33")


def test_ik_richardson_convergence_to_homogeneous():
    with mp.workprec(192):
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        z_hom = homogeneous_partition_jets(3, lam, eta)
        errs = []
        for h in (mp.mpf("1e-2"), mp.mpf("5e-3")):
            lams = [lam + k * h for k in range(3)]
            nus = [k * h / 3 for k in range(3)]
            errs.append(abs(ik_partition(SpectralData(lams, nus, eta)) - z_hom))
        assert errs[1] < errs[0]


def test_partially_inhomogeneous_matches_oracle():
    with mp.workprec(128):
        eta = mp.mpf("0.35")
        lams = [mp.mpf("1.05"), mp.mpf("1.3"), mp.mpf("0.9")]
        z = partially_inhomogeneous_partition(lams, eta)
        spec = SpectralData(lams, [mp.mpf(0)] * 3, eta)
        zo = partition_function_oracle(WeightGrid.from_spectral(spec))
        assert abs(z - zo) / abs(zo) < mp.mpf("1e-30")


def test_homogeneous_jets_examples():
    with mp.workprec(128):
        eta = mp.mpf("0.3")
        assert abs(homogeneous_partition_jets(1, mp.mpf("1.0"), eta)
                   - mp.sin(2 * eta)) < mp.mpf("1e-36")
        # free fermion point: Z_2 = c^2 (a^2 + b^2) = 1
        z2 = homogeneous_partition_jets(2, mp.pi / 2, mp.pi / 4)
        assert abs(z2 - 1) < mp.mpf("1e-35")
        z3 = homogeneous_partition_jets(3, mp.pi / 2, mp.pi / 6)
        assert abs(z3 - 7 * (mp.sqrt(3) / 2) ** 9) < mp.mpf("1e-35")


def test_k_polynomial_basics():
    with mp.workprec(128):
        k0 = k_polynomial(0, mp.mpf("1.2"), mp.mpf("0.4"))
        assert k0.degree == 0 and abs(k0.coeffs[0] - 1) < mp.mpf("1e-36")
        k3 = k_polynomial(3, mp.pi / 2, mp.pi / 5)
        assert k3.degree == 3 and abs(k3.coeffs[3]) > mp.mpf("1e-10")


def _fd_phi_derivs(lam, eta, top):
    """Finite-difference rebuild of phi derivatives (test oracle only)."""
    def phi(x):
        return mp.sin(2 * eta) / (mp.sin(x + eta) * mp.sin(x - eta))
    h = mp.mpf(2) ** -60
    derivs = [phi(lam)]
    for m in range(1, top + 1):
        if m == 1:
            d = (phi(lam - 2 * h) - 8 * phi(lam - h) + 8 * phi(lam + h)
                 - phi(lam + 2 * h)) / (12 * h)
        elif m == 2:
            d = (-phi(lam - 2 * h) + 16 * phi(lam - h) - 30 * phi(lam)
                 + 16 * phi(lam + h) - phi(lam + 2 * h)) / (12 * h * h)
        elif m == 3:
            d = (-phi(lam - 2 * h) + 2 * phi(lam - h) - 2 * phi(lam + h)
                 + phi(lam + 2 * h)) / (2 * h ** 3)
        else:
            d = (phi(lam - 2 * h) - 4 * phi(lam - h) + 6 * phi(lam)
                 - 4 * phi(lam + h) + phi(lam + 2 * h)) / h ** 4
        derivs.append(d)
    return derivs


def test_k2_against_finite_difference_rebuild():
    lam, eta = mp.pi / 2, mp.pi / 4
    with mp.workprec(128):
        k2 = k_polynomial(2, lam, eta)
    with mp.workprec(512):
        rebuilt = k_polynomial_by_minors(2, _fd_phi_derivs(lam, eta, 4))
    for a, b in zip(k2.coeffs, rebuilt):
        assert abs(a - b) <= mp.mpf("1e-25") * max(1, abs(b))


def random_moments(rng, top):
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12))
            for _ in range(top + 1)]


def test_k_polynomial_is_the_determinant_formula_on_rational_moments():
    # Gram-Schmidt on Fractions is exact, so every K row is == the n + 2
    # determinant form and the pivots multiply to the Hankel determinant
    rng = random.Random(28)
    for n in range(8):
        for _ in range(6):
            pd = random_moments(rng, 2 * n)
            assert all(hankel_det(pd, k) != 0 for k in range(n + 1))
            assert k_polynomial(n, None, None, pd).coeffs == k_polynomial_by_minors(n, pd)
            assert math.prod(hankel_factor(pd, n)[1]) == hankel_det(pd, n), (n, pd)


@pytest.mark.parametrize("n", range(1, 7))
def test_constant_moments_are_singular(n):
    # pd = (1, 1, 1, ...) has H_1 = 0, so row 1 has a zero pivot
    assert hankel_det([1] * 3, 1) == 0
    with pytest.raises(SingularHankel, match="H_1"):
        k_polynomial(n, None, None, [Fraction(1)] * (2 * n + 1))


def test_vanishing_inner_minor_raises_where_the_determinant_form_did_not():
    # H_1 = 0 but H_2 = -1: the determinant form returns a K_2 of degree
    # below 2 (its leading coefficient is a multiple of H_1), the
    # factorisation needs d_1 = H_1 / H_0 as a divisor and refuses.  H_k is
    # Z_{k+1} times a nonzero factor, so this needs a vanishing Z.
    pd = [Fraction(x) for x in (1, 1, 1, 0, 0)]
    assert hankel_det(pd, 1) == 0 and hankel_det(pd, 2) == -1
    old = k_polynomial_by_minors(2, pd)
    assert old[2] == 0 and any(old)
    with pytest.raises(SingularHankel, match="H_1"):
        k_polynomial(2, None, None, pd)


def test_recurrence_empty_profile_is_one():
    with mp.workprec(128):
        spec = spectral(3)
        assert gefp_inhom_recurrence(spec, YoungProfile(3, ())) == 1


def test_recurrence_matches_oracle():
    with mp.workprec(128):
        spec = spectral(3)
        grid = WeightGrid.from_spectral(spec)
        for r in ((2,), (2, 3), (1, 2), (3, 3, 3)):
            rec = gefp_inhom_recurrence(spec, YoungProfile(3, r))
            orc = gefp_oracle(grid, YoungProfile(3, r)).value
            assert abs(rec - orc) <= mp.mpf("1e-22") * max(1, abs(orc))


def test_determinant_matches_recurrence_and_oracle():
    with mp.workprec(128):
        spec = spectral(3)
        for r in ((2,), (1, 2), (2, 3), (2, 2, 3)):
            p = YoungProfile(3, r)
            rec = gefp_inhom_recurrence(spec, p)
            detv = gefp_inhom_determinant(spec, p)
            assert abs(rec - detv) <= mp.mpf("1e-20") * max(1, abs(rec))
        spec4 = spectral(4)
        grid4 = WeightGrid.from_spectral(spec4)
        p = YoungProfile(4, (2, 4))
        detv = gefp_inhom_determinant(spec4, p)
        orc = gefp_oracle(grid4, p).value
        assert abs(detv - orc) <= mp.mpf("1e-20") * max(1, abs(orc))


def test_determinant_permutation_cap(monkeypatch):
    def no_work(*args):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(ik, "det", no_work)
    with mp.workprec(64):
        lams = [mp.mpf("0.2") + k * mp.mpf("0.137") for k in range(8)]
        nus = [mp.mpf("0.05") + k * mp.mpf("0.113") for k in range(8)]
        eta = mp.mpf("0.29")
        # no weight vanishes, so only the cap can refuse
        assert min(abs(w(lam, nu, eta)) for w in (a_fn, b_fn)
                   for lam in lams for nu in nus) > mp.mpf("1e-3")
        spec = SpectralData(lams, nus, eta)
        with pytest.raises(TooLarge, match="permutation cap 7"):
            gefp_inhom_determinant(spec, YoungProfile(8, (4,)))


def test_recurrence_refuses_above_the_permutation_cap_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(ik, "ik_partition", no_work)
    with mp.workprec(64):
        lams = [mp.mpf("0.2") + k * mp.mpf("0.137") for k in range(8)]
        nus = [mp.mpf("0.05") + k * mp.mpf("0.113") for k in range(8)]
        spec = SpectralData(lams, nus, mp.mpf("0.29"))
        with pytest.raises(TooLarge, match="permutation cap 7"):
            gefp_inhom_recurrence(spec, YoungProfile(8, (8,) * 8))


@pytest.mark.parametrize("engine", [gefp_inhom_recurrence, gefp_inhom_determinant])
def test_inhom_engines_refuse_a_profile_of_another_N(engine):
    with mp.workprec(128):
        with pytest.raises(BadIndex, match="profile N=4 does not match 3 rapidities"):
            engine(spectral(3), YoungProfile(4, (2,)))
