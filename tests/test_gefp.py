import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import product

import pytest
from mpmath import mp

from gefp_lab.backends import to_exact, to_float
from gefp_lab.errors import BadIndex, NonphysicalWeights, TooLarge, Unsupported
from gefp_lab import gefp, hfun, ik
from gefp_lab.algebra import TruncatedSeries
from gefp_lab.gefp import gefp_determinant_jets, gefp_residue, jets_workspace, residue_workspace
from gefp_lab.hfun import build_h_tables, h_polynomial, pole_deformation_check
from gefp_lab.oracle import (WeightGrid, YoungProfile, all_profiles,
                             boundary_distribution_oracle, gefp_oracle)
from gefp_lab.params import VertexWeights, delta_t_from_trig
from jets_reference import (exact_contraction, exact_pair_block, full_box_contraction,
                            mpf_pair_block)
from residue_reference import (_w_series, _z_series, all_pairs_prefactor, alternant_minors,
                               dense_alternant, mul_pair, offsets_to_degree, rows_on_box)

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


THIRD, THREE_QUARTERS = Fraction(1, 3), Fraction(3, 4)


@pytest.mark.parametrize("build, args", [
    (residue_workspace, (3, 4, THIRD, THREE_QUARTERS)),
    (residue_workspace, (0, 1, THIRD, THREE_QUARTERS)),
    (residue_workspace, (3, 0, THIRD, THREE_QUARTERS)),
    (build_h_tables, (3, 4, THIRD, THREE_QUARTERS)),
    (build_h_tables, (0, 1, THIRD, THREE_QUARTERS)),
    (hfun.boundary_H_table_via_K, (0, 1.1, 0.35)),
    (jets_workspace, (3, 0, 1.1, 0.35)),
    (jets_workspace, (3, -1, 1.1, 0.35)),
    (jets_workspace, (3, 4, 1.1, 0.35)),
], ids=lambda x: getattr(x, "__name__", None))
def test_builders_refuse_s_outside_one_to_N(build, args):
    # each once ended in IndexError, RecursionError or a workspace built on
    # the wrong rows; the refusal names N and s
    N, s = args[:2] if build is not hfun.boundary_H_table_via_K else (args[0], 1)
    with pytest.raises(BadIndex, match=rf"\(N, s\) = \({N}, {s}\)"):
        build(*args)


def test_float_residue_is_exactly_zero_on_blocked_profiles():
    with mp.workprec(128):
        for lam_s, eta_s in (("1.1", "0.35"), ("1.45", "0.62")):
            delta, t = delta_t_from_trig(mp.mpf(lam_s), mp.mpf(eta_s))
            for n in range(1, 6):
                for prof in all_profiles(n):
                    if prof.blocked:
                        value = gefp_residue(n, prof, delta, t, "float").value
                        assert value == 0 and isinstance(value, mp.mpf), prof.r


def test_residue_single_row_is_cumulative_boundary():
    w = VertexWeights.from_delta_t(Fraction(1, 3), Fraction(3, 4))
    table = boundary_distribution_oracle(WeightGrid.from_weights(4, w))
    running = Fraction(0)
    previous = Fraction(0)
    for r in range(1, 5):
        running += table[r - 1]
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


def test_strict_call_does_not_read_a_permissive_workspace():
    prof, delta, t = YoungProfile(3, (2, 3)), Fraction(3, 2), Fraction(1, 2)
    gefp._workspace_cache.clear()
    with pytest.raises(NonphysicalWeights):
        gefp_residue(3, prof, delta, t, allow_nonphysical=False)
    assert gefp_residue(3, prof, delta, t).value == Fraction(96, 101)
    with pytest.raises(NonphysicalWeights):
        gefp_residue(3, prof, delta, t, allow_nonphysical=False)
    with mp.workprec(64), pytest.raises(NonphysicalWeights):
        gefp_residue(3, prof, Fraction(1, 2), Fraction(-1, 2), "float", allow_nonphysical=False)


def test_residue_float_backend_matches_exact():
    with mp.workprec(128):
        delta, t = mp.mpf("0.5"), mp.mpf(1)
        prof = YoungProfile(3, (2, 3))
        vf = gefp_residue(3, prof, delta, t, "float").value
        ve = gefp_residue(3, prof, D0, T0).value
        assert abs(vf - mp.mpf(ve.numerator) / ve.denominator) < mp.mpf("1e-30")


def test_float_residue_accepts_exact_scalars():
    with mp.workprec(128):
        tol = mp.mpf(2) ** (16 - mp.prec)
        cases = [(n, p) for n in range(1, 6) for p in all_profiles(n)]
        cases += [(6, p) for s in (5, 6) for p in all_profiles(6, s)]
        for n, prof in cases:
            vf = gefp_residue(n, prof, Fraction(1, 3), Fraction(3, 4), "float").value
            ve = gefp_residue(n, prof, Fraction(1, 3), Fraction(3, 4)).value
            assert abs(vf - to_float(ve)) <= tol * abs(to_float(ve)), prof.r


@pytest.mark.parametrize("delta, t", [(Fraction(1, 3), Fraction(3, 4)),
                                      (Fraction(3, 2), Fraction(1, 2)),
                                      (Fraction(-1), Fraction(2, 3))])
def test_float_residue_gate_at_n7_n8(delta, t):
    # relative to exact, every unblocked profile with s <= 3; (3/2, 1/2) is
    # outside the physical cone, and (-1, 2/3) has no trig point (lambda, eta)
    with mp.workprec(128):
        tol = mp.mpf(2) ** (16 - mp.prec)
        for n in (7, 8):
            for prof in all_profiles(n):
                if prof.s > 3 or prof.blocked:
                    continue
                vf = gefp_residue(n, prof, delta, t, "float").value
                ve = to_float(gefp_residue(n, prof, delta, t).value)
                assert abs(vf - ve) <= tol * abs(ve), (n, prof.r)


def test_float_residue_never_takes_the_k_route(monkeypatch):
    def no_k_route(*args):
        raise AssertionError("the K-polynomial tables were built")

    monkeypatch.setattr(hfun, "boundary_H_table_via_K", no_k_route)
    gefp._workspace_cache.clear()
    with mp.workprec(128):
        prof = YoungProfile(5, (2, 3, 5))
        value = gefp_residue(5, prof, Fraction(1, 3), Fraction(3, 4), "float").value
        exact = to_float(gefp_residue(5, prof, Fraction(1, 3), Fraction(3, 4)).value)
        assert abs(value - exact) <= mp.mpf(2) ** (16 - mp.prec) * exact


def _assert_correctly_rounded(n, profiles, delta, t):
    """The float residue value is the exact oracle's at the dyadic inputs,
    rounded once."""
    w = VertexWeights.from_delta_t(to_exact(delta), to_exact(t), allow_nonphysical=True)
    grid = WeightGrid.from_weights(n, w)
    for prof in profiles:
        value = gefp_residue(n, prof, delta, t, "float").value
        assert value._mpf_ == to_float(gefp_oracle(grid, prof).value)._mpf_, (n, prof.r)


# (3/2, 1/2) is outside the physical cone, and (-1, 2/3) has no trig point
GATE_POINTS = [(Fraction(1, 3), Fraction(3, 4)), (Fraction(1, 7), Fraction(5, 11)),
               (Fraction(-1), Fraction(2, 3)), (Fraction(3, 2), Fraction(1, 2)),
               ("1.1", "0.35")]


@pytest.mark.parametrize("prec", [64, 128, 256])
@pytest.mark.parametrize("point", GATE_POINTS,
                         ids=["1/3,3/4", "1/7,5/11", "-1,2/3", "3/2,1/2", "trig"])
def test_float_residue_is_correctly_rounded(prec, point):
    with mp.workprec(prec):
        if isinstance(point[0], str):
            delta, t = delta_t_from_trig(*(mp.mpf(x) for x in point))
        else:
            delta, t = (to_float(x) for x in point)
        for n in range(1, 6):
            _assert_correctly_rounded(n, all_profiles(n), delta, t)


def test_float_residue_is_correctly_rounded_at_n7_n8():
    with mp.workprec(128):
        delta, t = to_float(Fraction(1, 3)), to_float(Fraction(3, 4))
        _assert_correctly_rounded(7, [YoungProfile(7, (2, 4, 6, 7))], delta, t)
        _assert_correctly_rounded(8, [YoungProfile(8, r) for r in
                                      ((3,), (1, 1), (2, 5), (1, 4, 8), (3, 3, 6))],
                                  delta, t)


def _brute_convolution(f, g, target):
    total = 0
    for idx, v in f.items():
        rem = tuple(a - b for a, b in zip(target, idx))
        if all(x >= 0 for x in rem):
            total += v * g.coeff(rem)
    return total


def test_coefficient_equals_brute_force_convolution():
    # the integer series in w, scaled back, and the route through h in z
    delta, t = Fraction(1, 3), Fraction(3, 4)
    for s in range(1, 5):
        ws = residue_workspace(4, s, delta, t)
        zs = _z_series(4, s, delta, t)
        B, D = ws.scale
        for prof in all_profiles(4, s):
            target = tuple(rj - 1 for rj in prof.r)
            want = (-1) ** s * _brute_convolution(zs.prefactor, zs.h, target)
            assert ws.coefficient(prof) == want
            alternant = rows_on_box(ws.rows, ws.caps)
            assert want == Fraction((-1) ** s * _brute_convolution(alternant, ws.quotient, target)
                                    * B ** (s * (s - 1) // 2), B ** sum(target) * D)


def prime_factors(n):
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | {n} - {1}


def residue_coefficients(delta, t, B):
    """(t^2 - 2 Delta t) B, 2 Delta t B and t^2 B^2: the coefficients in w = z / B."""
    return (t * t - 2 * delta * t) * B, 2 * delta * t * B, (t * B) ** 2


def assert_least_residue_scale(ws, delta, t):
    # B is the lcm rule (den(t) divides the other two's lcm), the workspace's
    # coefficients are the integers it gives, and B / p leaves one of them
    # fractional for every prime p | B
    B = ws.scale[0]
    lin, a, b = residue_coefficients(delta, t, B)
    assert B == math.lcm(*(x.denominator for x in (t * t - 2 * delta * t, 2 * delta * t)))
    assert B % t.denominator == 0
    assert ws.pair == (a, b) and lin.denominator == a.denominator == b.denominator == 1
    sign = (-1) ** ws.s                              # (lin w + 1)^(s-1) (B w - 1)^-s
    assert ws.factors[0][:2] == [sign, sign * (ws.s * B + (ws.s - 1) * lin)]
    for p in prime_factors(B):
        assert any(x.denominator != 1 for x in residue_coefficients(delta, t, B // p)), p


@pytest.mark.parametrize("prec", [64, 128, 512])
def test_residue_scale_is_the_least_at_float_points(prec):
    # a p-bit point's B has about 2p bits, where q v^2 has about 3p
    with mp.workprec(prec):
        points = [delta_t_from_trig(mp.mpf("1.1"), mp.mpf("0.35")),
                  (to_float(Fraction(1, 3)), to_float(Fraction(3, 4))),
                  (to_float(Fraction(1, 7)), to_float(Fraction(5, 11)))]
        for delta, t in points:
            ws = residue_workspace(3, 2, delta, t, "float")
            assert_least_residue_scale(ws, to_exact(delta), to_exact(t))
            assert ws.scale[0].bit_length() <= 2 * prec + 4


@pytest.mark.parametrize("delta, t", [(Fraction(1, 3), Fraction(3, 4)),
                                      (Fraction(-5, 7), Fraction(-2, 9)),
                                      (Fraction(5), Fraction(1, 2))])
def test_exact_workspace_holds_only_ints(delta, t):
    # a silent fallback to Fraction arithmetic would pass every value test;
    # the alternant is zero on repeated exponents, the quotient above the cap
    for s in range(1, 6):
        ws = residue_workspace(5, s, delta, t)
        data = [x for row in ws.rows.values() for x in row] + ws.quotient.data + list(ws.scale)
        assert all(type(x) is int for x in data)
        assert_least_residue_scale(ws, delta, t)
        assert all(row[e] == 0 for (used, _), row in ws.rows.items()
                   for e in range(5) if used >> e & 1)
        alternant, top = rows_on_box(ws.rows, ws.caps), s * 4 - s * (s - 1) // 2
        for idx in product(range(5), repeat=s):
            if len(set(idx)) < s:
                assert alternant.coeff(idx) == 0
            if sum(idx) > top:
                assert ws.quotient.coeff(idx) == 0


def test_alternant_is_h_times_the_vandermonde():
    # A = det[f_k(z_j)] = h prod_{j<k} (z_j - z_k) on the box, in z (B = 1)
    difference = TruncatedSeries((1, 1), 0, [0, -1, 1, 0])
    for delta, t in ((Fraction(1, 3), Fraction(3, 4)), (Fraction(3, 2), Fraction(1, 2))):
        for n in range(1, 6):
            for s in range(1, n + 1):
                tables = build_h_tables(n, s, delta, t)
                want = h_polynomial(tables, n, s)
                for j in range(s):
                    for k in range(j + 1, s):
                        want = mul_pair(want, j, k, difference)
                rows = gefp._alternant_rows(tables, n, s, 1)
                assert rows_on_box(rows, (n - 1,) * s).data == want.data, (n, s)


@pytest.mark.parametrize("delta, t", [(Fraction(1, 3), Fraction(3, 4)),
                                      (Fraction(-5, 7), Fraction(2, 9))])
def test_alternant_rows_on_the_box_are_the_dense_alternant(delta, t):
    # signs from the Laplace steps of signed_subsets against the order of
    # each alpha, scaled by the point record's B, on the whole box
    for n in range(1, 7):
        record = gefp._PointRecord(n, delta, t)
        tables = {m: record.table(m)[0] for m in range(1, n + 1)}
        for s in range(1, n + 1):
            caps = (n - 1,) * s
            want = dense_alternant(alternant_minors(tables, n, s, record.B), caps)
            rows = gefp._build_exact_series(record, s).rows
            assert rows_on_box(rows, caps).data == want.data, (n, s)


# (3/2, 1/2) is outside the physical cone; the last point is the 128-bit
# rounding of (1/3, 3/4), whose denominators are powers of two
with mp.workprec(128):
    ROUTE_POINTS = [(Fraction(1, 3), Fraction(3, 4)), (Fraction(1, 7), Fraction(5, 11)),
                    (Fraction(-5, 7), Fraction(2, 9)), (Fraction(3, 2), Fraction(1, 2)),
                    (to_exact(to_float(Fraction(1, 3))), to_exact(to_float(Fraction(3, 4))))]
ROUTE_IDS = ["1/3,3/4", "1/7,5/11", "-5/7,2/9", "3/2,1/2", "1/3,3/4@128"]


# Z_4 < 0 at (3, 1) and Z_6 < 0 at (5, 1/2), so a table's gcd takes its sign
@pytest.mark.parametrize("delta, t", ROUTE_POINTS[:4] + [(Fraction(3), Fraction(1)),
                                                         (Fraction(5), Fraction(1, 2))],
                         ids=ROUTE_IDS[:4] + ["3,1", "5,1/2"])
def test_residue_tables_and_scale_are_the_lcm_route(monkeypatch, delta, t):
    # the route replaced: each H table as Fractions, scaled by the lcm of its
    # denominators, and D the product of the scales
    seen, rows = [], gefp._alternant_rows
    monkeypatch.setattr(gefp, "_alternant_rows",
                        lambda tables, *args: seen.append(dict(tables)) or rows(tables, *args))
    for n in range(1, 7):
        record = gefp._PointRecord(n, delta, t)
        for s in range(1, n + 1):
            series = gefp._build_exact_series(record, s)
            tables, scale = {}, 1
            for m, table in build_h_tables(n, s, delta, t).items():
                lcm = math.lcm(*(x.denominator for x in table))
                tables[m], scale = [int(x * lcm) for x in table], scale * lcm
            assert seen.pop() == tables and series.scale[1] == scale, (n, s)


@pytest.mark.parametrize("delta, t", ROUTE_POINTS, ids=ROUTE_IDS)
def test_residue_equals_the_route_through_h(delta, t):
    # every profile with N <= 6
    for n in range(1, 7):
        for s in range(1, n + 1):
            reference = _w_series(n, s, delta, t)
            for prof in all_profiles(n, s):
                assert gefp_residue(n, prof, delta, t).value == reference.coefficient(prof), \
                    (n, prof.r)


@pytest.mark.parametrize("delta, t", ROUTE_POINTS, ids=ROUTE_IDS)
def test_residue_equals_the_route_through_h_at_n7_n8(delta, t):
    # r = (N, ..., N) reads the quotient at the degree cap
    rng = random.Random(21)
    for n, s_max in ((7, 4), (8, 3)):
        for s in range(1, s_max + 1):
            reference = _w_series(n, s, delta, t)
            profiles = [YoungProfile(n, (n,) * s)] + rng.sample(all_profiles(n, s), 4)
            for prof in profiles:
                assert gefp_residue(n, prof, delta, t).value == reference.coefficient(prof), \
                    (n, prof.r)


def _orders(profiles, seed):
    """Each profile cold on its own, then the table, reversed and a shuffled
    order, each pass from an empty cache."""
    shuffled = list(profiles)
    random.Random(seed).shuffle(shuffled)
    return [[p] for p in profiles] + [profiles, profiles[::-1], shuffled]


@pytest.mark.parametrize("delta, t", ROUTE_POINTS[:4], ids=ROUTE_IDS[:4])
def test_call_order_does_not_change_values(delta, t):
    # against the whole-box workspace, whatever box the first profile leaves
    for n_max, backend in ((6, "exact"), (5, "float")):
        profiles = [p for n in range(1, n_max + 1) for s in range(1, n + 1)
                    for p in all_profiles(n, s)]
        with mp.workprec(128):
            gefp._workspace_cache.clear()
            want = {p: residue_workspace(p.N, p.s, delta, t, backend).coefficient(p)
                    for p in profiles}
            if backend != "exact":
                want = {p: to_float(v)._mpf_ for p, v in want.items()}
            for seq in _orders(profiles, n_max):
                gefp._workspace_cache.clear()
                for prof in seq:
                    value = gefp_residue(prof.N, prof, delta, t, backend).value
                    assert (value if backend == "exact" else value._mpf_) == want[prof], \
                        (backend, prof.r)


def test_workspace_fills_only_the_box():
    delta, t = Fraction(1, 3), Fraction(3, 4)
    gefp._workspace_cache.clear()
    ws = residue_workspace(7, 4, delta, t, profile=YoungProfile(7, (2, 4, 6, 7)))
    assert ws.caps == (1, 3, 5, 6) and len(ws.quotient.data) == 2 * 4 * 6 * 7
    # r = (1, ..., 6) reads the quotient at degree 0 alone
    ws = residue_workspace(6, 6, delta, t, profile=YoungProfile(6, range(1, 7)))
    assert [o for o, x in enumerate(ws.quotient.data) if x] == [0]
    # a blocked profile never widens; the first uncovered one widens in place
    first = residue_workspace(5, 3, delta, t, profile=YoungProfile(5, (1, 2, 3)))
    assert first.caps == (0, 1, 2)
    blocked = YoungProfile(5, (2, 2, 2))
    assert residue_workspace(5, 3, delta, t, profile=blocked) is first
    assert first.caps == (0, 1, 2) and gefp_residue(5, blocked, delta, t).value == 0
    assert residue_workspace(5, 3, delta, t, profile=YoungProfile(5, (2, 3, 5))) is first
    assert first.caps == (4, 4, 4)
    # a blocked first profile, then an uncovered one
    gefp._workspace_cache.clear()
    first = residue_workspace(5, 3, delta, t, profile=YoungProfile(5, (1, 1, 1)))
    assert gefp_residue(5, YoungProfile(5, (1, 1, 1)), delta, t).value == 0
    assert gefp_residue(5, YoungProfile(5, (1, 3, 5)), delta, t).value != 0
    assert first.caps == (4, 4, 4)


@pytest.mark.parametrize("delta, t", ROUTE_POINTS, ids=ROUTE_IDS)
def test_quotient_grown_one_axis_at_a_time_equals_all_pairs(delta, t):
    # the whole box for N <= 6 and for N = 7 with s <= 5, and three sampled
    # profile boxes at every s <= N <= 7
    rng = random.Random(36)
    for n in range(1, 8):
        record = gefp._PointRecord(n, delta, t)
        for s in range(1, n + 1):
            series = gefp._build_exact_series(record, s)
            profiles = all_profiles(n, s)
            boxes = [tuple(rj - 1 for rj in p.r)
                     for p in rng.sample(profiles, min(3, len(profiles)))]
            if n ** s <= 6 ** 6:
                boxes.append((n - 1,) * s)
            for caps in boxes:
                want = all_pairs_prefactor(series.factors, caps, *series.pair)
                assert series.fill(caps).quotient.data == want.data, (n, caps)


def test_prefactor_runs_each_axis_passes_on_its_suffix_box(monkeypatch):
    # t - 1 passes (0, k) on each suffix box caps[s-t:], shortest first,
    # each on the offsets of that box up to the whole box's top degree
    seen, div_pair = [], TruncatedSeries.div_pair

    def spy(self, j, k, a, b, offsets):
        seen.append((self.caps, j, k, list(offsets)))
        return div_pair(self, j, k, a, b, offsets)

    monkeypatch.setattr(TruncatedSeries, "div_pair", spy)
    series = gefp._build_exact_series(gefp._PointRecord(7, Fraction(1, 3), Fraction(3, 4)), 4)
    for caps in ((1, 3, 5, 6), (6, 6, 6, 6), (0, 0, 0, 0), (4, 2)):
        seen.clear()
        s, top = len(caps), sum(caps) - len(caps) * (len(caps) - 1) // 2
        gefp._prefactor_series(series.factors[4 - s:], caps, *series.pair)
        assert seen == [(caps[s - t:], 0, k, offsets_to_degree(caps[s - t:], top))
                        for t in range(2, s + 1) for k in range(1, t)]


def test_refill_between_profiles_with_one_head_reads_the_new_box():
    # (1, 2, 3) and (1, 2, 5) share m[:-1] = (0, 1); the second refills the
    # box, so the enumeration of the first s - 1 axes is taken again on it
    delta, t = Fraction(-5, 7), Fraction(2, 9)
    whole = {r: residue_workspace(5, 3, delta, t).coefficient(YoungProfile(5, r))
             for r in ((1, 2, 3), (1, 2, 5), (2, 2, 5))}
    gefp._workspace_cache.clear()
    ws = residue_workspace(5, 3, delta, t, profile=YoungProfile(5, (1, 2, 3)))
    assert ws.caps == (0, 1, 2)
    assert gefp_residue(5, YoungProfile(5, (1, 2, 3)), delta, t).value == whole[(1, 2, 3)]
    head = ws.head
    assert gefp_residue(5, YoungProfile(5, (1, 2, 5)), delta, t).value == whole[(1, 2, 5)]
    assert ws.caps == (4, 4, 4) and ws.head[0] == head[0] and ws.head[1] != head[1]
    # a profile with the same m[:-1] on the same box reads the kept enumeration
    head = ws.head
    assert gefp_residue(5, YoungProfile(5, (1, 2, 4)), delta, t).value == \
        gefp_oracle(WeightGrid.from_weights(5, VertexWeights.from_delta_t(delta, t)),
                    YoungProfile(5, (1, 2, 4))).value
    assert ws.head is head
    assert gefp_residue(5, YoungProfile(5, (2, 2, 5)), delta, t).value == whole[(2, 2, 5)]


def test_strict_sweep_checks_physicality_once(monkeypatch):
    calls = []
    original = VertexWeights.from_delta_t.__func__

    def counted(cls, *args, **kwargs):
        if not kwargs.get("allow_nonphysical"):
            calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(VertexWeights, "from_delta_t", classmethod(counted))
    monkeypatch.setattr(gefp, "_physical_points", {})
    profiles = [p for s in range(1, 5) for p in all_profiles(6, s)]
    assert len(profiles) == 209
    for prof in profiles:
        gefp_residue(6, prof, Fraction(1, 3), Fraction(3, 4), allow_nonphysical=False)
    assert calls == [(Fraction(1, 3), Fraction(3, 4))]


def test_warm_sweep_hashes_no_fraction(monkeypatch):
    # every cache is keyed by the integers of the point, so a second pass of
    # the 209 profiles at N = 6 hashes no Fraction
    delta, t = Fraction(1, 3), Fraction(3, 4)
    profiles = [p for s in range(1, 5) for p in all_profiles(6, s)]
    first = [gefp_residue(6, p, delta, t, allow_nonphysical=False).value for p in profiles]
    calls, fraction_hash = [], Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or fraction_hash(x))
    again = [gefp_residue(6, p, delta, t, allow_nonphysical=False).value for p in profiles]
    assert calls == [] and again == first


def test_sweep_over_s_builds_the_grid_and_each_table_once(monkeypatch):
    # one point record serves every s: over s = 1..4 at N = 6, one transfer
    # weight computation and one block sweep per table n = 6..3
    seen, sums = [], gefp._boundary_sums
    monkeypatch.setattr(gefp, "_boundary_sums", lambda grid, n: seen.append(n) or sums(grid, n))
    computed, weights = [], WeightGrid._transfer_weights.func
    counted = cached_property(lambda grid: computed.append(grid) or weights(grid))
    counted.__set_name__(WeightGrid, "_transfer_weights")
    monkeypatch.setattr(WeightGrid, "_transfer_weights", counted)
    monkeypatch.setattr(gefp, "_workspace_cache", {})
    monkeypatch.setattr(gefp, "_point_records", {})
    for s in range(1, 5):
        residue_workspace(6, s, Fraction(1, 3), Fraction(3, 4))
    assert seen == [6, 5, 4, 3] and len(computed) == 1


def test_factors_grow_only_to_the_largest_s_asked(monkeypatch):
    seen, factor = [], gefp._factor_coeffs
    monkeypatch.setattr(gefp, "_factor_coeffs",
                        lambda N, p, B, lin: seen.append(p) or factor(N, p, B, lin))
    monkeypatch.setattr(gefp, "_workspace_cache", {})
    monkeypatch.setattr(gefp, "_point_records", {})
    delta, t = Fraction(1, 3), Fraction(3, 4)
    gefp_residue(7, YoungProfile(7, (2, 4, 6, 7)), delta, t)
    assert seen == [1, 2, 3, 4]
    gefp_residue(7, YoungProfile(7, (3, 5)), delta, t)
    gefp_residue(7, YoungProfile(7, (1, 2, 3, 4, 5)), delta, t)
    assert seen == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_empty_profile_checks_physicality(backend):
    prof = YoungProfile(3, ())
    with pytest.raises(NonphysicalWeights):
        gefp_residue(3, prof, Fraction(5), Fraction(-1), backend, allow_nonphysical=False)
    assert gefp_residue(3, prof, Fraction(5), Fraction(-1), backend).value == 1


def _assert_jets_match_oracle(n, profiles):
    """Relative error at most 2^(20 - prec); absolute where the value is 0."""
    lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
    w = VertexWeights.from_abc(mp.sin(lam + eta), mp.sin(lam - eta), mp.sin(2 * eta))
    grid = WeightGrid.from_weights(n, w)
    bound = mp.mpf(2) ** (20 - mp.prec)
    for prof in profiles:
        jv = gefp_determinant_jets(n, prof, lam, eta).value
        ov = gefp_oracle(grid, prof).value
        assert abs(jv - ov) <= bound * (abs(ov) if ov else 1), prof.r


def test_jets_matches_oracle():
    with mp.workprec(128):
        for n in (1, 2, 3, 4):
            _assert_jets_match_oracle(n, all_profiles(n))


@pytest.mark.parametrize("prec", [64, 128])
def test_jets_accuracy_gate_at_n5(prec):
    with mp.workprec(prec):
        profiles = [p for p in all_profiles(5) if p.s <= 4]
        _assert_jets_match_oracle(5, profiles + [YoungProfile(5, (1, 2, 3, 4, 5))])


def test_jets_warm_cache_equals_cold():
    # the second set is the N = 5 half of the jets-sweep benchmark
    with mp.workprec(128):
        lam, eta = mp.mpf("1.45"), mp.mpf("0.62")
        for profiles in ([p for n in (3, 4) for p in all_profiles(n)],
                         [p for p in all_profiles(5) if p.s <= 3]):
            random.Random(3).shuffle(profiles)
            warm = [gefp_determinant_jets(p.N, p, lam, eta).value for p in profiles]
            for p, value in zip(profiles, warm):
                gefp._jets_cache.clear()
                assert gefp_determinant_jets(p.N, p, lam, eta).value == value


def test_jets_second_sweep_reads_the_memo(monkeypatch):
    with mp.workprec(128):
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        profiles = all_profiles(4)
        random.Random(5).shuffle(profiles)
        first = {p.r: gefp_determinant_jets(4, p, lam, eta).value for p in profiles}
        spaces = [jets_workspace(4, s, lam, eta) for s in range(1, 5)]
        memos = [(dict(ws.folds), dict(ws.partials)) for ws in spaces]

        def no_build(*args):
            raise AssertionError("a jets workspace was rebuilt")

        monkeypatch.setattr(gefp, "_build_jets_workspace", no_build)
        random.Random(6).shuffle(profiles)
        second = {p.r: gefp_determinant_jets(4, p, lam, eta).value for p in profiles}
    assert second == first
    # nothing was built again: every fold and partial tensor is the stored one
    for ws, memo in zip(spaces, memos):
        for now, then in zip((ws.folds, ws.partials), memo):
            assert now.keys() == then.keys()
            assert all(now[key] is value for key, value in then.items())


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_jets_contraction_is_the_exact_sum_rounded_once(prec):
    # the engine's pair product holds the staircase alone, the reference's
    # the whole N^s box: the entries left out never reach a value
    with mp.workprec(prec):
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        profiles = [p for n in (1, 2, 3, 4) for p in all_profiles(n)]
        profiles += [p for p in all_profiles(5) if p.s <= 3]
        for p in profiles:
            value = gefp_determinant_jets(p.N, p, lam, eta).value
            exact = exact_contraction(jets_workspace(p.N, p.s, lam, eta), p.r,
                                      gefp.jets_inputs(p.N, lam, eta))
            assert value._mpf_ == to_float((-1) ** p.s * exact)._mpf_, p.r


TRIG_POINTS = ((mp.mpf("1.1"), mp.mpf("0.35")), (mp.mpf("1.45"), mp.mpf("0.62")))


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_jets_folds_vanish_past_the_row_position(prec):
    # the terms the contraction reads: u = rho^N omega^(N-r) starts at degree
    # N - r and K row j has degree N - s + j, so fold(r)[j][m] = 0 exactly
    # for m > r - s + j, and the last term before that bound is not 0
    with mp.workprec(prec):
        for (lam, eta), N in product(TRIG_POINTS, range(1, 7)):
            inputs = gefp.jets_inputs(N, lam, eta)
            for s in range(1, N + 1):
                flat, _ = gefp._dyadic([x for row in inputs.k_rows[N - s:] for x in row])
                weights = [flat[o:o + N] for o in range(0, s * N, N)]
                ws = gefp.JetsWorkspace(N, s, None, weights, inputs.powers, 0, 0)
                for r in range(1, N + 1):
                    for j, row in enumerate(ws.fold(r)):
                        last = r - s + j
                        assert all(x == 0 for x in row[max(last + 1, 0):]), (N, s, r, j)
                        assert last < 0 or row[last] != 0, (N, s, r, j)


def test_jets_blocked_profiles_are_exact_zeros_with_no_partial_tensor():
    # r_j < j leaves some axis no K row with a live term, so the contraction
    # runs out of terms: the value is exact 0 and the profile stores nothing
    with mp.workprec(128):
        for (lam, eta), N in product(TRIG_POINTS, range(2, 7)):
            blocked = [p for p in all_profiles(N) if any(x < j for j, x in enumerate(p.r, 1))]
            assert blocked
            # each workspace starts cold; a blocked r is a full profile, so
            # only its own call writes partials[r]
            cold = set()
            for p in blocked:
                ws = jets_workspace(N, p.s, lam, eta)
                if p.s not in cold:
                    cold.add(p.s)
                    ws.partials.clear()
                assert gefp_determinant_jets(N, p, lam, eta).value._mpf_ == mp.zero._mpf_, p.r
                assert ws.partials[p.r] == {}, p.r


def test_jets_contraction_on_the_box_equals_the_full_box_one():
    boxes = [(N, s) for N in range(1, 7) for s in range(1, min(N, 4) + 1)] + [(7, 3)]
    with mp.workprec(128):
        for (lam, eta), (N, s) in product(TRIG_POINTS, boxes):
            ws = jets_workspace(N, s, lam, eta)
            profiles = all_profiles(N, s)
            memo = {}
            want = {p.r: full_box_contraction(ws, p.r, memo)._mpf_ for p in profiles}
            for p in profiles:
                ws.partials.clear()
                assert ws.contraction(p.r)._mpf_ == want[p.r], p.r
            ws.partials.clear()
            random.Random(N * 10 + s).shuffle(profiles)
            assert {p.r: ws.contraction(p.r)._mpf_ for p in profiles} == want


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_pair_block_is_the_exact_block_rounded_once(prec):
    with mp.workprec(prec):
        for (lam, eta), N in product(TRIG_POINTS, range(1, 9)):
            inputs = gefp.jets_inputs(N, lam, eta)
            block, exponent = inputs.pair_block
            exact = exact_pair_block(inputs)
            scale = Fraction(2) ** -exponent
            assert block == [math.floor(x * scale + Fraction(1, 2)) for x in exact.data]
            if N > 1:    # rounded where the smallest entry keeps prec + 16 bits
                assert min(x.bit_length() for x in block if x) == prec + gefp.JETS_GUARD_BITS
            # and the mpf route through rho_tilde and rho agrees
            bound = mp.mpf(2) ** (8 - prec)
            for x, y in zip(block, mpf_pair_block(inputs).data, strict=True):
                x = mp.ldexp(mp.mpf(x), exponent)
                assert abs(x - y) <= bound * abs(x), (N, x, y)


def test_jets_shared_inputs_built_once_per_n(monkeypatch):
    # the pair block, the K rows and the powers do not depend on s, and every
    # K row comes from one Hankel factorisation per (N, lambda, eta, prec)
    calls = {(gefp, "OmegaRho"): [], (ik, "hankel_factor"): []}
    for (module, name), log in calls.items():
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, log=log: log.append(a) or real(*a))
    lam, eta = mp.mpf("1.45"), mp.mpf("0.62")
    gefp._jets_cache.clear()
    for prec in (64, 128):
        with mp.workprec(prec):
            warm = [jets_workspace(5, s, lam, eta) for s in (3, 1, 5, 2, 4)]
    assert [len(log) for log in calls.values()] == [2, 2]
    assert [a[1] for a in calls[ik, "hankel_factor"]] == [4, 4]
    with mp.workprec(128):
        for ws in warm:
            gefp._jets_cache.clear()
            cold = jets_workspace(5, ws.s, lam, eta)
            assert cold is not ws
            assert (cold.pair, cold.weights, cold.powers, cold.exponent) == \
                (ws.pair, ws.weights, ws.powers, ws.exponent)
            for p in all_profiles(5, ws.s):
                assert cold.contraction(p.r)._mpf_ == ws.contraction(p.r)._mpf_, p.r
        # each s grows from s - 1, so no build order changes a workspace
        spaces = []
        for order in ((5, 1, 3), range(1, 6)):
            gefp._jets_cache.clear()
            spaces.append({s: jets_workspace(5, s, lam, eta) for s in order})
        for s in (5, 1, 3):
            one, other = (space[s] for space in spaces)
            assert one is not other
            assert (one.pair, one.weights, one.exponent, one.pair_exponent) == \
                (other.pair, other.weights, other.exponent, other.pair_exponent)


def test_jets_pair_product_grows_one_axis_at_a_time(monkeypatch):
    # a cold (N, s) build starts from the (N, s - 1) pair product and runs
    # only the s - 1 passes that touch the new axis; s = 1 runs none
    log = []
    real = gefp._pair_pass
    monkeypatch.setattr(gefp, "_pair_pass", lambda data, N, s, j, k, block:
                        log.append((len(data), s, j, k)) or real(data, N, s, j, k, block))
    lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
    with mp.workprec(64):
        for N in range(1, 6):
            gefp._jets_cache.clear()
            for s in range(1, N + 1):
                log.clear()
                jets_workspace(N, s, lam, eta)
                assert log == [(N ** s, s, j, s - 1) for j in range(s - 1)], (N, s)
            # from an empty cache the build runs the chain s = 2..N once
            gefp._jets_cache.clear()
            log.clear()
            jets_workspace(N, N, lam, eta)
            assert log == [(N ** s, s, j, s - 1) for s in range(2, N + 1) for j in range(s - 1)]


def test_workspaces_keyed_by_precision_and_exact_value():
    # dyadic parameters read the same at 64 and 128 bits, so only mp.prec in
    # the jets key keeps those entries apart; the residue entry is exact and
    # shared, and each call rounds its own result
    lam, eta = mp.mpf("1.125"), mp.mpf("0.375")
    delta, t = mp.mpf("0.375"), mp.mpf("0.75")
    prof = YoungProfile(4, (2, 3, 4))
    with mp.workprec(64):
        cold = gefp_determinant_jets(4, prof, lam, eta).value
        cold_residue = gefp_residue(4, prof, delta, t, "float").value
    gefp._jets_cache.clear()
    gefp._workspace_cache.clear()
    with mp.workprec(128):
        gefp_determinant_jets(4, prof, lam, eta)
        gefp_residue(4, prof, delta, t, "float")
        ws, rws = jets_workspace(4, 3, lam, eta), residue_workspace(4, 3, delta, t, "float")
        # one ulp apart at 128 bits, but equal in their first 38 digits (str)
        lam_next = lam * (1 + mp.mpf(2) ** -127)
        assert str(lam_next) == str(lam)
        assert jets_workspace(4, 3, lam_next, eta) is not ws
        assert residue_workspace(4, 3, delta * (1 + mp.mpf(2) ** -127), t,
                                 "float") is not rws
    with mp.workprec(64):
        assert jets_workspace(4, 3, lam, eta) is not ws
        assert gefp_determinant_jets(4, prof, lam, eta).value == cold
        assert gefp_residue(4, prof, delta, t, "float").value == cold_residue


def test_float_residue_workspace_depends_on_delta_t_alone():
    with mp.workprec(128):
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        delta, t = delta_t_from_trig(lam, eta)
        prof = YoungProfile(4, (2, 4))
        gefp._workspace_cache.clear()
        cold = gefp_residue(4, prof, delta, t, "float").value
        assert gefp_residue(4, prof, delta, t, "float").value == cold


def test_exact_residue_refuses_float_scalars():
    with pytest.raises(Unsupported):
        gefp_residue(3, YoungProfile(3, (2,)), mp.mpf(1) / 3, mp.mpf(3) / 4)
    with pytest.raises(Unsupported):
        residue_workspace(3, 1, Fraction(1, 3), 0.75)
    with pytest.raises(Unsupported):
        gefp_residue(3, YoungProfile(3, ()), 0.5, Fraction(1))


@pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf, float("nan")],
                         ids=["nan", "inf", "-inf", "float-nan"])
def test_non_finite_parameters_raise_unsupported(bad):
    with pytest.raises(Unsupported):
        to_exact(bad)
    for r in ((2,), ()):
        with pytest.raises(Unsupported):
            gefp_residue(3, YoungProfile(3, r), bad, Fraction(1), "float")
    w = VertexWeights.from_delta_t(mp.mpf(bad), mp.mpf(1), allow_nonphysical=True)
    with pytest.raises(Unsupported):
        gefp_oracle(WeightGrid.from_weights(3, w), YoungProfile(3, (2,)))
    # the jets engine reads its inputs as integers, where nan would read as 0
    for lam, eta in ((bad, mp.mpf("0.3")), (mp.mpf("1.1"), bad)):
        with pytest.raises(Unsupported):
            gefp_determinant_jets(3, YoungProfile(3, (2,)), lam, eta)


def test_jets_full_row_is_one():
    with mp.workprec(128):
        val = gefp_determinant_jets(4, YoungProfile(4, (4,)), mp.mpf("1.2"),
                                    mp.mpf("0.3")).value
        assert abs(val - 1) < mp.mpf("1e-18")


def _assert_jets_match_residue(jv, rv, profile):
    """Relative error at most 2^(20 - prec); both engines give an exact 0
    on a blocked profile."""
    assert abs(jv - rv) <= mp.mpf(2) ** (20 - mp.prec) * abs(rv), profile.r


def test_jets_matches_residue_through_parameter_conversion():
    with mp.workprec(128):
        for lam_s, eta_s in (("1.1", "0.35"), ("1.45", "0.62")):
            lam, eta = mp.mpf(lam_s), mp.mpf(eta_s)
            delta, t = delta_t_from_trig(lam, eta)
            for n in (1, 2, 3, 4):
                for prof in all_profiles(n):
                    jv = gefp_determinant_jets(n, prof, lam, eta).value
                    rv = gefp_residue(n, prof, delta, t, "float").value
                    _assert_jets_match_residue(jv, rv, prof)
        # N = 5 spot checks, including a full-length profile
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        delta, t = delta_t_from_trig(lam, eta)
        for r in ((3, 5), (2, 3, 4), (1, 2, 3, 4, 5)):
            prof = YoungProfile(5, r)
            jv = gefp_determinant_jets(5, prof, lam, eta).value
            rv = gefp_residue(5, prof, delta, t, "float").value
            _assert_jets_match_residue(jv, rv, prof)


def test_jets_s_cap():
    with mp.workprec(64):
        with pytest.raises(TooLarge):
            gefp_determinant_jets(7, YoungProfile(7, (1,) * 7), mp.mpf("1.1"),
                                  mp.mpf("0.35"))


def test_k_route_refuses_n_above_its_cap_before_any_input(monkeypatch):
    # N^s under JETS_BOX_CAP at s = 1 and 2, yet N above K_ROUTE_N_CAP
    def no_build(*args):
        raise AssertionError("a K-route input was built")

    for target in (gefp, "_JetsInputs"), (gefp, "phi_derivatives"):
        monkeypatch.setattr(*target, no_build)
    N = gefp.K_ROUTE_N_CAP + 1
    assert N ** 2 <= gefp.JETS_BOX_CAP
    with mp.workprec(64):
        for r in ((N,), (N, N)):
            with pytest.raises(TooLarge, match=f"N={N} exceeds the K-route cap"):
                gefp_determinant_jets(N, YoungProfile(N, r), mp.mpf("1.1"), mp.mpf("0.35"))
        with pytest.raises(TooLarge, match=f"N={N} exceeds the K-route cap"):
            hfun.boundary_H_table_via_K(N, mp.mpf("1.1"), mp.mpf("0.35"))
    gefp.check_jets_box(gefp.K_ROUTE_N_CAP, 1)


def test_jets_workspaces_share_no_memo():
    with mp.workprec(64):
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        spaces = [jets_workspace(3, s, lam, eta) for s in (1, 2, 3)]
        inputs = gefp.jets_inputs(3, lam, eta)
        spaces += [gefp.JetsWorkspace(3, 1, None, [[1]], inputs.powers, 0, 0)
                   for _ in range(2)]
        for name in ("folds", "partials"):
            memos = [getattr(ws, name) for ws in spaces]
            assert len({id(memo) for memo in memos}) == len(spaces), name
        assert spaces[-1].folds == spaces[-1].partials == {}
        spaces[-2].folds[0] = spaces[-2].partials[0] = None
        assert spaces[-1].folds == spaces[-1].partials == {}


def test_jets_physicality_is_checked_before_the_workspace():
    with mp.workprec(64):
        prof, lam, eta = YoungProfile(3, (2, 3)), mp.mpf(0), mp.mpf("0.3")
        gefp._jets_cache.clear()
        with pytest.raises(NonphysicalWeights):
            gefp_determinant_jets(3, prof, lam, eta, allow_nonphysical=False)
        gefp_determinant_jets(3, prof, lam, eta)        # builds the workspace
        with pytest.raises(NonphysicalWeights):
            gefp_determinant_jets(3, prof, lam, eta, allow_nonphysical=False)
        for r in ((3, 3), ()):                         # an EFP profile, the empty one
            with pytest.raises(NonphysicalWeights):
                gefp_determinant_jets(3, YoungProfile(3, r), lam, eta,
                                      allow_nonphysical=False)
        assert gefp_determinant_jets(3, YoungProfile(3, ()), lam, eta).value == 1


def test_strict_jets_sweep_checks_physicality_once(monkeypatch):
    # once per (lambda, eta, prec) that passes
    calls, check = [], gefp.weights_from_trig
    monkeypatch.setattr(gefp, "weights_from_trig", lambda *args: calls.append(args) or check(*args))
    monkeypatch.setattr(gefp, "_physical_points", {})
    lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
    profiles = [p for n in (4, 5) for p in all_profiles(n)]
    for prof in profiles:
        gefp_determinant_jets(prof.N, prof, lam, eta, allow_nonphysical=False)
    assert len(calls) == 1
    with mp.workprec(64):
        gefp_determinant_jets(4, YoungProfile(4, (2, 3)), lam, eta, allow_nonphysical=False)
    assert len(calls) == 2


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


def test_pole_check_fails_on_a_perturbed_h():
    # moving the constant or the top coefficient of h by 1 leaves a pole
    # contribution that does not vanish
    d, t = Fraction(1, 3), Fraction(3, 4)
    for N, r in ((3, (2, 3)), (4, (2, 3, 4)), (4, (1, 4))):
        s, prof = len(r), YoungProfile(N, r)
        for where in (0, -1):
            h = h_polynomial(build_h_tables(N, s, d, t), N, s)
            h.data[where] += 1
            assert not any(hfun._pole_contribution_is_zero(h, prof, j, d, t)
                           for j in range(s - 1)), (N, r, where)


def test_pole_deformation_requires_boundary_profile():
    with pytest.raises(BadIndex):
        pole_deformation_check(3, YoungProfile(3, (2, 2)), D0, T0)
    with pytest.raises(Unsupported):
        pole_deformation_check(3, YoungProfile(3, (2, 3)), 0.5, 1.0)


def _no_work(*args):
    raise AssertionError("the residue box was built")


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("r", [(8,) * 7, (8,) * 8, (2, 2) + (8,) * 6],
                         ids=["8^7", "8^8", "blocked"])
def test_residue_refuses_a_box_above_the_cap_before_any_work(monkeypatch, backend, r):
    monkeypatch.setattr(gefp, "_build_exact_series", _no_work)
    with pytest.raises(TooLarge, match=r"cap 7\^7"):
        gefp_residue(8, YoungProfile(8, r), D0, T0, backend)


def test_residue_refuses_to_widen_past_the_cap_before_the_fill(monkeypatch):
    # N = 8 with s <= 6 stays allowed; at s = 7 a small first box is built,
    # the whole 8^7 box is above the cap, so a profile past the box refills
    # on its own box, and one whose own box is above the cap is refused
    # before the fill
    assert gefp_residue(8, YoungProfile(8, (8,) * 6), D0, T0).value == 1
    assert gefp_residue(8, YoungProfile(8, (1,) * 7), D0, T0).value == 0
    profile = YoungProfile(8, (1, 2, 3, 4, 5, 6, 7))
    assert residue_workspace(8, 7, D0, T0, profile=profile).caps == (0, 1, 2, 3, 4, 5, 6)
    monkeypatch.setattr(gefp.IntegrandSeries, "fill", _no_work)
    with pytest.raises(TooLarge, match=r"box 6x7x8x8x8x8x8 exceeds"):
        gefp_residue(8, YoungProfile(8, (6, 7, 8, 8, 8, 8, 8)), D0, T0)


def test_residue_refusal_and_value_do_not_depend_on_call_order():
    # at N = 8, s = 7 the profile's own box decides: after a profile whose
    # box does not cover it, the same call refills on its own box and gives
    # the cold value
    first, later = YoungProfile(8, (2, 3, 4, 5, 6, 7, 7)), YoungProfile(8, (1, 2, 3, 4, 5, 6, 8))
    gefp._workspace_cache.clear()
    cold = gefp_residue(8, later, D0, T0).value
    gefp._workspace_cache.clear()
    gefp_residue(8, first, D0, T0)
    assert gefp_residue(8, later, D0, T0).value == cold
    assert residue_workspace(8, 7, D0, T0, profile=later).caps == (0, 1, 2, 3, 4, 5, 7)


def test_workspace_cache_reuse():
    ws1 = residue_workspace(4, 2, D0, T0)
    ws2 = residue_workspace(4, 2, D0, T0)
    assert ws1 is ws2
    assert residue_workspace(4, 2, D0, 1) is ws1 is residue_workspace(4, 2, Fraction(1, 2), T0)
    # one entry for both backends: a float call at the dyadic rationals it holds
    with mp.workprec(128):
        delta, t = to_float(Fraction(1, 3)), to_float(Fraction(3, 4))
        exact = residue_workspace(4, 2, to_exact(delta), to_exact(t))
        assert residue_workspace(4, 2, delta, t, "float") is exact


def test_residue_profile_mismatch():
    with pytest.raises(BadIndex):
        gefp_residue(4, YoungProfile(3, (2,)), D0, T0)
