"""References for the jets engine, summed or built the long way.

``JetsWorkspace.contraction`` contracts one axis at a time and keeps the
partial tensors of every profile suffix on the box its folds reach.
``exact_contraction`` sums sgn(p) P[i] prod_k v[k][p(k)][i_k] over every
permutation p and every index i of the N^s box instead, in integers, from the
workspace's ``weights`` and ``powers`` and a pair product of its own, with no
memo: the engine must give this sum, rounded once.  That P is
``full_box_pair``: the generic series product of the pair blocks on the
whole box, each pass rounded by ``_shift_to`` over the whole box, so the sum
also reads every entry that the engine leaves out as one no profile can
reach.  (The engine's shift reads its staircase alone; where the box's
smallest entry lies off it, the reference keeps more guard bits.)
``full_box_contraction`` is the engine's axis-by-axis contraction with every
partial tensor on the whole N^k box and every dot product over N terms.

``exact_pair_block`` builds (1 - wt)(1 - ww)(1 - wt ww)^-1 with the generic
series product and inverse on ``Fraction``s, from the dyadic values of the
inputs' omega_tilde and omega; ``mpf_pair_block`` builds
(rt rr (wt ww - 1))^-1 from the mpf jets, rt = (1 - wt)^-1 and rr = rho.
"""

from fractions import Fraction
from itertools import permutations, product
from operator import mul

from mpmath import mp

from gefp_lab.algebra import TruncatedSeries, perm_sign
from gefp_lab.backends import to_exact
from gefp_lab.gefp import JETS_GUARD_BITS, _dyadic, _shift_to
from residue_reference import constant, mul_pair


def full_box_pair(inputs, s):
    """(P, exponent): prod_{j<k} block(x_j, x_k) on the whole N^s box, by
    ``mul_pair`` on every entry, in the engine's order (0, 1), (0, 2),
    (1, 2), (0, 3), ..., each pass rounded by ``_shift_to`` to
    ``JETS_GUARD_BITS`` past the working precision."""
    n = inputs.N - 1
    pair, exponent = constant([n] * s, 1, 0), 0
    for k in range(s):
        for j in range(k):
            block, block_exp = inputs.pair_block
            pair = mul_pair(pair, j, k, TruncatedSeries((n, n), 0, block))
            exponent += block_exp + _shift_to(pair.data, mp.prec + JETS_GUARD_BITS)
    return pair, exponent


def exact_contraction(ws, r, inputs):
    """The contraction of the jets workspace ``ws`` at the profile r, as the
    exact dyadic ``Fraction``, with P from ``full_box_pair`` of ``inputs``,
    the workspace's shared inputs."""
    N, s = ws.N, ws.s
    pair, exponent = full_box_pair(inputs, s)
    weights_exp = _dyadic([x for row in inputs.k_rows[N - s:] for x in row])[1]
    exponent += s * (weights_exp + inputs.powers_exp)
    folds = [[[sum(ws.powers[N - rk][d] * w[m + d] for d in range(N - m))
               for m in range(N)] for w in ws.weights] for rk in r]
    total = 0
    for p in permutations(range(s)):
        for i in product(range(N), repeat=s):
            term = perm_sign(p) * pair.coeff(i)
            for k in range(s):
                term *= folds[k][p[k]][i[k]]
            total += term
    return Fraction(total) * Fraction(2) ** exponent


def full_box_contraction(ws, r, partials):
    """The contraction of ``ws`` at r with every partial tensor on the whole
    N^k box and every dot product over N terms, memoized by profile suffix
    in ``partials``."""
    N, s = ws.N, ws.s
    start = next((k for k in range(s) if tuple(r[k:]) in partials), s)
    states = partials[tuple(r[start:])] if start < s else {0: ws.pair}
    for k in reversed(range(start)):
        v = ws.fold(r[k])
        nxt = {}
        for used in range(1 << s):
            if bin(used).count("1") != s - k:
                continue
            rows, tensors = [], []
            for j in range(s):
                if used >> j & 1:
                    prev = used ^ (1 << j)
                    odd = bin(prev & ((1 << j) - 1)).count("1") % 2
                    rows += [-x for x in v[j]] if odd else v[j]
                    tensors.append(states[prev])
            nxt[used] = [sum(map(mul, rows, [x for tensor in tensors
                                             for x in tensor[o:o + N]]))
                         for o in range(0, len(tensors[0]), N)]
        states = partials[tuple(r[k:])] = nxt
    return mp.ldexp(mp.mpf(states[(1 << s) - 1][0]), ws.exponent)


def _embed(coeffs, axis, n, zero):
    """A univariate coefficient list, to degree n, on axis 0 or 1 of the
    (n, n) box."""
    out = TruncatedSeries((n, n), zero)
    for m, c in enumerate(coeffs[:n + 1]):
        out.data[m * (n + 1) ** (1 - axis)] = c
    return out


def _plus(series, c):
    """``series`` plus the constant c."""
    return TruncatedSeries(series.caps, series.zero, [series.data[0] + c, *series.data[1:]])


def exact_pair_block(inputs):
    """(1 - wt(x))(1 - ww(y)) / (1 - wt(x) ww(y)) on the (N-1, N-1) box, as
    ``Fraction``s, at the dyadic values of the inputs' jets."""
    n, zero = inputs.N - 1, Fraction(0)
    wt, ww = (_embed([to_exact(x) for x in jet.coeffs], axis, n, zero)
              for axis, jet in enumerate((inputs.fns.omega_tilde(n), inputs.omega)))
    return _plus(wt * -1, 1) * _plus(ww * -1, 1) * _plus(wt * ww * -1, 1).invert()


def mpf_pair_block(inputs):
    """(rt(x) rr(y) (wt(x) ww(y) - 1))^-1 on the (N-1, N-1) box, in mpf."""
    fns, n, zero = inputs.fns, inputs.N - 1, mp.mpf(0)
    wt = _embed(fns.omega_tilde(n).coeffs, 0, n, zero)
    ww = _embed(inputs.omega.coeffs, 1, n, zero)
    rt = _embed((1 - fns.omega_tilde(n)).invert().coeffs, 0, n, zero)
    rr = _embed(fns.rho(n).coeffs, 1, n, zero)
    return (rt * rr * _plus(wt * ww, -1)).invert()
