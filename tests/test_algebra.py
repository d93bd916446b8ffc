import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from mpmath import mp

from gefp_lab.algebra import (Jet, TruncatedSeries, UniPoly, _convolve, det,
                              geometric_inverse_coeffs, signed_supersets, staircase_planes)
from gefp_lab.errors import NotInvertible
from gefp_lab.gefp import _factor_coeffs, _prefactor_series
from residue_reference import constant, mul_axis, mul_pair, offsets_to_degree


def det_cofactor(rows):
    """Reference determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    out = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = (-1) ** j * rows[0][j] * det_cofactor(minor)
        out = term if out is None else out + term
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_signed_supersets_add_each_missing_member_with_its_laplace_parity(n):
    # every k-subset, each j not in it ascending, and the parity of the
    # members below j
    for k in range(n):
        want = {rest: [(j, rest | 1 << j, sum(rest >> i & 1 for i in range(j)) & 1)
                       for j in range(n) if not rest >> j & 1]
                for rest in range(1 << n) if rest.bit_count() == k}
        assert signed_supersets(n, k) == want, k


def test_det_small_examples():
    assert det([[1, 2], [3, 4]]) == -2
    eye5 = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert det(eye5) == 1
    assert det([]) == 1


def test_det_matches_cofactor_on_random_rationals():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(4):
            m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            assert det(m) == det_cofactor(m)


def test_det_singular_returns_zero():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det(m) == 0
    assert det([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]) == 0


def test_det_types_follow_the_entries():
    # exact entries eliminate as Fraction, even where the pivots divide unevenly
    got = det([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
    assert type(got) is Fraction and got == 20
    got = det([[1, 2], [2, 4]])
    assert type(got) is Fraction and got == 0
    with mp.workprec(128):
        got = det([[mp.mpf(1), mp.mpf(2)], [mp.mpf(2), mp.mpf(4)]])
        assert type(got) is type(mp.mpf(0)) and got == 0


def test_det_needs_row_swap():
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert det(m) == -1


def test_det_float_matches_cofactor():
    with mp.workprec(128):
        rng = random.Random(3)
        for n in range(1, 6):
            m = [[mp.mpf(rng.randint(-9, 9)) / 4 for _ in range(n)] for _ in range(n)]
            assert abs(det(m) - det_cofactor(m)) < mp.mpf("1e-30")


def test_jet_entries_determinant_matches_cofactor():
    # 2x2 matrix of phi-jet derivatives against direct expansion
    from gefp_lab.ik import phi_derivatives
    with mp.workprec(128):
        pd = phi_derivatives(mp.mpf("1.2"), mp.mpf("0.4"), 2)
        entries = [[pd[0], pd[1]], [pd[1], pd[2]]]
        expect = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
        rel = abs(det(entries) - expect) / max(1, abs(expect))
        assert rel < mp.mpf("1e-35")


def _fd_derivative(f, x0, m, h):
    """5-point central finite-difference derivative of order m <= 4."""
    pts = [f(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
    if m == 0:
        return pts[2]
    if m == 1:
        return (pts[0] - 8 * pts[1] + 8 * pts[3] - pts[4]) / (12 * h)
    if m == 2:
        return (-pts[0] + 16 * pts[1] - 30 * pts[2] + 16 * pts[3] - pts[4]) / (12 * h * h)
    if m == 3:
        return (-pts[0] + 2 * pts[1] - 2 * pts[3] + pts[4]) / (2 * h ** 3)
    if m == 4:
        return (pts[0] - 4 * pts[1] + 6 * pts[2] - 4 * pts[3] + pts[4]) / h ** 4
    raise ValueError(m)


def test_sin_jet_matches_finite_differences():
    # order-8 jet of sin around a random base; orders 0..4 within 10 ulp at 128 bits
    rng = random.Random(11)
    for _ in range(3):
        base = mp.mpf(rng.uniform(0.5, 1.2))
        with mp.workprec(128):
            jet = Jet.sin_offset(base, 8)
            derivs = [jet.derivative(m) for m in range(5)]
        with mp.workprec(512):
            h = mp.mpf(2) ** -70
            for m in range(5):
                fd = _fd_derivative(mp.sin, base, m, h)
                tol = 10 * mp.mpf(2) ** -128 * max(1, abs(fd))
                assert abs(derivs[m] - fd) <= tol, (m, abs(derivs[m] - fd))


def test_jet_arithmetic_roundtrip():
    with mp.workprec(128):
        j = Jet.sin_offset(mp.mpf("0.9"), 6) + 2
        assert abs((j * j.invert()).coeffs[0] - 1) < mp.mpf("1e-35")
        for c in (j * j.invert()).coeffs[1:]:
            assert abs(c) < mp.mpf("1e-32")
        assert ((j ** 3) * (j.invert() ** 3)).coeffs[0] - 1 < mp.mpf("1e-30")


def _schoolbook(a, b, size, zero):
    """Coefficient n of the product, every a[i] b[n - i] added in i order."""
    return [sum((a[i] * b[n - i] for i in range(n + 1) if i < len(a) and n - i < len(b)), zero)
            for n in range(size)]


def test_convolve_skips_zeros_without_changing_a_coefficient():
    # adding an exact zero product leaves an mpf sum unchanged, so skipping
    # zero entries gives the schoolbook sums bit for bit, in mpf and in int
    rng = random.Random(13)
    with mp.workprec(128):
        sines = [Jet.sin_offset(mp.mpf(0), n) for n in (1, 4, 7)]
        assert all(x._mpf_ == mp.zero._mpf_ for x in sines[-1].coeffs[::2])
        pairs = [(u.coeffs, v.coeffs) for u, v in product(sines, repeat=2)]
        pairs += [([mp.mpf(rng.choice((0, rng.uniform(-2, 2)))) for _ in range(rng.randint(1, 8))],
                   [mp.mpf(rng.choice((0, rng.uniform(-2, 2)))) for _ in range(rng.randint(1, 8))])
                  for _ in range(40)]
        for a, b in pairs:
            for size in (1, len(a), len(a) + len(b) - 1):
                want = _schoolbook(a, b, size, mp.zero)
                assert [x._mpf_ for x in _convolve(a, b, size, mp.zero)] == [x._mpf_ for x in want]
        for u, v in product(sines, repeat=2):
            want = _schoolbook(u.coeffs, v.coeffs, u.order + 1, mp.zero)
            assert [x._mpf_ for x in (u * v).coeffs] == [x._mpf_ for x in want]
    for _ in range(40):
        a, b = ([rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 8))]
                for _ in range(2))
        size = rng.randint(1, len(a) + len(b))
        assert _convolve(a, b, size, 0) == _schoolbook(a, b, size, 0)


def test_jet_invert_rejects_zero_constant():
    j = Jet([Fraction(0), Fraction(1)], 3)
    with pytest.raises(NotInvertible):
        j.invert()


def test_series_invert_geometric():
    one = Fraction(1)
    f = TruncatedSeries((3,), Fraction(0), [one, -one, 0 * one, 0 * one])
    inv = f.invert()
    assert [inv.coeff((m,)) for m in range(4)] == [1, 1, 1, 1]


def test_series_invert_constant():
    f = constant((2,), Fraction(2), Fraction(0))
    assert f.invert().coeff((0,)) == Fraction(1, 2)


def test_inverse_of_an_integer_series_is_exact():
    want = [Fraction(1, 3), Fraction(-1, 9), Fraction(1, 27), Fraction(-1, 81)]
    for inverse in (TruncatedSeries((3,), 0, [3, 1, 0, 0]).invert().data,
                    Jet([3, 1, 0, 0]).invert().coeffs):
        assert inverse == want
        assert all(type(x) is Fraction for x in inverse)


def test_series_invert_multiply_back_bivariate():
    # (1 - 2*Delta*t*z + t^2*z*w) with caps (2, 2)
    delta, t = Fraction(1, 3), Fraction(3, 4)
    zero = Fraction(0)
    f = TruncatedSeries((2, 2), zero)
    f.set_coeff((0, 0), Fraction(1))
    f.set_coeff((1, 0), -2 * delta * t)
    f.set_coeff((1, 1), t * t)
    prod = f * f.invert()
    assert prod.coeff((0, 0)) == 1
    assert all(v == 0 for idx, v in prod.items() if any(idx))


def test_series_invert_involution_on_random_series():
    rng = random.Random(5)
    zero = Fraction(0)
    for _ in range(5):
        f = TruncatedSeries((2, 2, 1), zero)
        f.set_coeff((0, 0, 0), Fraction(rng.randint(1, 5)))
        for idx in [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 0, 1)]:
            f.set_coeff(idx, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        again = f.invert().invert()
        assert all(again.coeff(idx) == v for idx, v in f.items())
        assert all(f.coeff(idx) == v for idx, v in again.items())


def test_series_invert_rejects_zero_constant():
    f = TruncatedSeries((2,), Fraction(0))
    f.set_coeff((1,), Fraction(1))
    with pytest.raises(NotInvertible):
        f.invert()


def test_series_substitute_and_mul_pair():
    zero = Fraction(0)
    f = TruncatedSeries((2, 2), zero)
    f.set_coeff((1, 1), Fraction(3))
    f.set_coeff((2, 0), Fraction(1))
    g = f.substitute_value(1, Fraction(2))
    assert g.coeff((1,)) == 6 and g.coeff((2,)) == 1
    big = mul_pair(constant((2, 3, 2), Fraction(1), zero), 0, 2, f)
    assert big.coeff((1, 0, 1)) == 3 and big.coeff((2, 0, 0)) == 1


def _random_series(rng, caps, density):
    f = TruncatedSeries(caps, Fraction(0))
    for i in range(len(f.data)):
        if rng.random() < density:
            f.data[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return f


def _brute_product(f, caps_factor, factor_coeff, axes):
    """Coefficients of f times a factor on ``axes``, by direct convolution."""
    out = {}
    for idx, v in f.items():
        for exps in product(*[range(c + 1) for c in caps_factor]):
            new = list(idx)
            for a, e in zip(axes, exps):
                new[a] += e
            if all(x <= c for x, c in zip(new, f.caps)):
                out[tuple(new)] = out.get(tuple(new), 0) + v * factor_coeff(exps)
    return out


@pytest.mark.parametrize("ordered", [True, False])
def test_mul_pair_and_mul_axis_equal_brute_force_convolution(ordered):
    rng = random.Random(11 if ordered else 12)
    for _ in range(30):
        s = rng.randint(2, 4)
        caps = tuple(rng.randint(1, 3) for _ in range(s))
        f = _random_series(rng, caps, rng.choice([0.1, 0.6, 1.0]))
        j, k = sorted(rng.sample(range(s), 2), reverse=not ordered)
        block = _random_series(rng, (rng.randint(0, 4), rng.randint(0, 4)), 0.7)
        want = _brute_product(f, block.caps, block.coeff, (j, k))
        got = mul_pair(f, j, k, block)
        assert all(got.coeff(idx) == want.get(idx, 0) for idx in product(
            *[range(c + 1) for c in caps]))
        var = rng.randrange(s)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 5))]
        want = _brute_product(f, (len(coeffs) - 1,), lambda e: coeffs[e[0]], (var,))
        got = mul_axis(f, var, coeffs)
        assert all(got.coeff(idx) == want.get(idx, 0) for idx in product(
            *[range(c + 1) for c in caps]))


def _inverse_block(f, j, k, a, b):
    """The truncated inverse of 1 - a z_j + b z_j z_k on f's (j, k) caps."""
    zero = f.zero
    den = TruncatedSeries((f.caps[j], f.caps[k]), zero)
    den.set_coeff((0, 0), zero + 1)
    if f.caps[j]:
        den.set_coeff((1, 0), zero - a)
        if f.caps[k]:
            den.set_coeff((1, 1), zero + b)
    return den.invert()


def _capped(f, top):
    """f with the entries of total degree above ``top`` set to zero."""
    return [v if sum(idx) <= top else 0 for idx, v in zip(_box(f.caps), f.data)]


def test_div_pair_equals_product_with_inverse():
    rng = random.Random(15)
    coeffs = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3)]
    for s in (2, 3, 4):
        for j, k in combinations(range(s), 2):
            for density in (0.3, 1.0):
                caps = tuple(rng.randint(0, 3) for _ in range(s))
                f = _random_series(rng, caps, density)
                a, b = rng.choice(coeffs), rng.choice(coeffs)
                want = mul_pair(f, j, k, _inverse_block(f, j, k, a, b))
                got = f.div_pair(j, k, a, b, range(len(f.data)))
                assert (got.caps, got.data) == (want.caps, want.data)
                top = rng.randint(0, sum(caps))
                assert f.div_pair(j, k, a, b, offsets_to_degree(caps, top)).data == \
                    _capped(want, top)


def _factors(N, s, B, lin):
    """The univariate factors of axes 0..s-1, F_s, ..., F_1."""
    return [_factor_coeffs(N, s - j, B, lin) for j in range(s)]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_prefactor_equals_product_with_inverse(N):
    # in w = z / B with the exact engine's integer parameters, against the
    # univariate factors times each pair block's inverse: equal up to the
    # degree cap and zero above it; in z (B = 1) the series is the one in w
    # over B^|m|; on a smaller box, the same entries to that box's cap
    rng = random.Random(N)
    for delta, t in ((Fraction(1, 3), Fraction(3, 4)), (Fraction(-5, 7), Fraction(2, 9))):
        a, b, B = 2 * delta * t, t * t, delta.denominator * t.denominator ** 2
        lin, a_w, b_w = int((b - a) * B), int(a * B), int(b * B * B)
        for s in range(1, N + 1):
            top = s * (N - 1) - s * (s - 1) // 2
            want = constant([N - 1] * s, 1, 0)
            for j in range(s):
                geometric = geometric_inverse_coeffs(s - j, N - 1, 1)
                want = mul_axis(want, j, (Jet([1, lin], N - 1) ** (s - 1 - j)).coeffs)
                want = mul_axis(want, j, [c * B ** m for m, c in enumerate(geometric)])
            for j, k in combinations(range(s), 2):
                inverse = _inverse_block(want, j, k, a_w, b_w)
                assert all(x.denominator == 1 for x in inverse.data)
                inverse.data = [x.numerator for x in inverse.data]
                want = mul_pair(want, j, k, inverse)
            whole = (N - 1,) * s
            scaled = _prefactor_series(_factors(N, s, B, lin), whole, a_w, b_w)
            assert scaled.data == _capped(want, top)
            assert _prefactor_series(_factors(N, s, 1, b - a), whole, a, b).data == [
                Fraction(x, B ** sum(idx)) for idx, x in zip(_box(want.caps), scaled.data)]
            for caps in rng.sample(_box(whole), min(8, N ** s)):
                sub = _prefactor_series(_factors(N, s, B, lin), caps, a_w, b_w)
                cap = sum(caps) - s * (s - 1) // 2
                assert sub.data == [scaled.coeff(idx) if sum(idx) <= cap else 0
                                    for idx in _box(caps)]


def _random_float(rng):
    """A full-width 128-bit mantissa at a random scale, so sums depend on order."""
    return mp.ldexp(mp.mpf(rng.getrandbits(128) - 2 ** 127), -127 - rng.randint(0, 30))


def _random_float_series(rng, caps, density):
    f = TruncatedSeries(caps, mp.mpf(0))
    f.data = [_random_float(rng) if rng.random() < density else mp.mpf(0)
              for _ in f.data]
    return f


def _box(caps):
    return list(product(*[range(c + 1) for c in caps]))


def _ordered_series_product(f, g):
    """f * g: each coefficient summed over f's nonzero entries in flat order,
    skipping zero partners."""
    out = []
    for tgt in _box(f.caps):
        acc = f.zero
        for idx, v in f.items():
            if all(i <= t for i, t in zip(idx, tgt)):
                w = g.coeff(tuple(t - i for i, t in zip(idx, tgt)))
                if w != 0:
                    acc = acc + v * w
        out.append(acc)
    return out


def _ordered_series_inverse(f):
    """1/f filled in graded order; each entry summed over f's nonzero
    non-constant entries in flat order, skipping zero inverse entries."""
    inv0 = 1 / f.data[0]
    out = {(0,) * f.nvars: inv0}
    for tgt in sorted(_box(f.caps), key=lambda t: (sum(t), t))[1:]:
        acc = f.zero
        for idx, v in f.items():
            if any(idx) and all(i <= t for i, t in zip(idx, tgt)):
                w = out[tuple(t - i for i, t in zip(idx, tgt))]
                if w != 0:
                    acc = acc + v * w
        out[tgt] = -acc * inv0
    return [out[tgt] for tgt in _box(f.caps)]


def _ordered_convolution(a, b, size, zero):
    """First ``size`` product coefficients, each summed over a's index in order."""
    out = []
    for m in range(size):
        acc = zero
        for i in range(min(m + 1, len(a))):
            if m - i < len(b) and a[i] != 0 and b[m - i] != 0:
                acc = acc + a[i] * b[m - i]
        out.append(acc)
    return out


@pytest.mark.parametrize("kind", ["series", "jet", "unipoly"])
def test_float_products_and_inverse_sum_in_documented_order(kind):
    rng = random.Random({"series": 21, "jet": 22, "unipoly": 23}[kind])
    with mp.workprec(128):
        for _ in range(25):
            sparse, dense = rng.choice([0.15, 0.3]), rng.choice([0.7, 1.0])
            if kind == "series":
                caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
                f = _random_float_series(rng, caps, sparse)
                g = _random_float_series(rng, caps, dense)
                for x, y in ((f, g), (g, f)):
                    assert repr((x * y).data) == repr(_ordered_series_product(x, y))
                for x in (f, g):
                    x.data[0] = _random_float(rng)
                    assert repr(x.invert().data) == repr(_ordered_series_inverse(x))
                continue
            # sums of three or more terms are needed to see the order
            n = rng.randint(3, 10)
            f = [_random_float(rng) if rng.random() < 2 * sparse else mp.mpf(0)
                 for _ in range(n)]
            g = [_random_float(rng) if rng.random() < dense else mp.mpf(0)
                 for _ in range(rng.randint(3, 10) if kind == "unipoly" else n)]
            f[0] = _random_float(rng)
            for x, y in ((f, g), (g, f)):
                if kind == "jet":
                    want = _ordered_convolution(x, y, n, x[0] * 0)
                    assert repr(Jet(x) * Jet(y)) == repr(Jet(want))
                else:
                    want = _ordered_convolution(x, y, len(x) + len(y) - 1, x[0] * y[0] * 0)
                    assert repr(UniPoly(x) * UniPoly(y)) == repr(UniPoly(want))


def test_geometric_inverse_coeffs():
    # (z-1)^(-2) = 1 + 2z + 3z^2 + ...
    assert geometric_inverse_coeffs(2, 3, Fraction(1)) == [1, 2, 3, 4]
    assert geometric_inverse_coeffs(1, 2, Fraction(1)) == [-1, -1, -1]


def test_unipoly_taylor_jet():
    p = UniPoly([Fraction(1), Fraction(-2), Fraction(3)])  # 1 - 2x + 3x^2
    jet = p.taylor_jet(Fraction(2), 2)
    # p(2 + e) = 9 + 10 e + 3 e^2
    assert jet.coeffs == [9, 10, 3]


def test_staircase_planes_list_the_staircase_for_every_pair_of_axes():
    # S(N, s): the t-th largest index at most N - 1 - t, (N-s+1)(N+1)^(s-1) points
    for N in range(2, 8):
        for s in range(2, min(N, 5) + 1):
            want = {i for i in product(range(N), repeat=s)
                    if all(x <= N - 1 - t for t, x in enumerate(sorted(i, reverse=True)))}
            assert len(want) == (N - s + 1) * (N + 1) ** (s - 1)
            for j, k in combinations(range(s), 2):
                got = []
                for rest, tops in staircase_planes(N, s):
                    for p, top in enumerate(tops):
                        for q in range(top + 1):
                            i = list(rest)
                            i.insert(j, p)
                            i.insert(k, q)
                            got.append(tuple(i))
                assert len(got) == len(want) and set(got) == want, (N, s, j, k)
