"""The residue expansion by the route through h, the reference for the engine.

``gefp_residue`` cancels the Vandermonde of h_{N,s} against the pair
numerators and expands the alternant det[f_k(z_j)] directly, only on the
box and to the total degree an extraction reads.  This module keeps the
route through h: the prefactor with the Vandermonde, one factor
(z_j - z_k) / (1 - 2 Delta t z_j + t^2 z_j z_k) per pair, times
``h_polynomial`` on the whole box.  ``_z_series`` builds it in z on the
scalars of (delta, t), with no scaling; ``_w_series`` builds the same
integrand on integers in w = z / B, with its own scaling (the prefactor
over B^(s(s-1)/2), entry k of h times D B^|k|), which keeps the N = 6
sweeps affordable.  Its B is q v^2 for Delta = p/q and t = u/v, not the
least B that the engine takes, so the engine's scaling is checked against
one derived apart from it.

``TruncatedSeries`` keeps only the plain product ``*``, so the embeddings of
a univariate or a pair factor, the constant series and the single product
coefficient that these references and the series tests read live here.
``all_pairs_prefactor`` builds the engine's quotient G with every
``div_pair`` pass on the whole box, the reference for growing it one axis at
a time, on the offsets that ``offsets_to_degree`` lists apart from the
engine's.  ``dense_alternant`` expands the alternant on a whole box from
the minors of ``alternant_minors``, its signs from the order of each alpha,
the reference for the engine's rows by exponent set, which ``rows_on_box``
lays out on a box.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from gefp_lab.algebra import TruncatedSeries, _minors, geometric_inverse_coeffs
from gefp_lab.gefp import _columns
from gefp_lab.hfun import build_h_tables, h_polynomial


def pair_ratio(f, j, k, a, b):
    """f (z_j - z_k) / (1 - a z_j + b z_j z_k), filled in flat order by
    q[o] = D[o - e_j] + a q[o - e_j] - b q[o - e_j - e_k] - D[o - e_k] over
    the terms whose index is not negative."""
    sj, sk = f._strides[j], f._strides[k]
    nj, nk = f.caps[j] + 1, f.caps[k] + 1
    d, q = f.data, [f.zero] * len(f.data)
    for o in range(len(q)):
        in_k = o // sk % nk
        if o // sj % nj:
            x = d[o - sj] + a * q[o - sj]
            q[o] = x - b * q[o - sj - sk] - d[o - sk] if in_k else x
        elif in_k:
            q[o] = -d[o - sk]
    return TruncatedSeries(f.caps, f.zero, q)


@dataclass
class RouteSeries:
    """The prefactor (with the Vandermonde) and h, with ``scale`` = (B, D)."""

    s: int
    prefactor: TruncatedSeries
    h: TruncatedSeries
    scale: tuple

    def coefficient(self, profile):
        """(-1)^s [w^m] prefactor * h at m = r - 1, times B^(s(s-1)/2) / (B^|m| D)."""
        m = [rj - 1 for rj in profile.r]
        c = (-1) ** self.s * product_coeff(self.prefactor, self.h, m)
        B, D = self.scale
        return Fraction(c * B ** (self.s * (self.s - 1) // 2), B ** sum(m) * D)


def constant(caps, value, zero):
    """The series on the cap box whose only nonzero entry is ``value`` at 0."""
    out = TruncatedSeries(caps, zero)
    out.data[0] = value
    return out


def product_coeff(f, g, idx):
    """Coefficient at ``idx`` of f * g, without the product.

    Equal caps give equal strides, so the partner of the entry at flat
    offset ``o`` sits at ``offset(idx) - o``.  Terms are added in flat order
    over the box below ``idx``, skipping zero entries of f.
    """
    assert f.caps == g.caps and all(0 <= i <= c for i, c in zip(idx, f.caps))
    box = [0]
    for m, stride in zip(idx, f._strides):
        box = [o + i * stride for o in box for i in range(m + 1)]
    top, total = f._offset(idx), f.zero
    for off in box:
        if f.data[off] != 0:
            total = total + f.data[off] * g.data[top - off]
    return total


def mul_axis(f, var, coeffs):
    """f times the univariate coefficient list ``coeffs`` in variable ``var``:
    the product with the list embedded on that axis of f's cap box."""
    g = TruncatedSeries(f.caps, f.zero)
    for m, v in enumerate(coeffs[:f.caps[var] + 1]):
        g.set_coeff(tuple(m if i == var else 0 for i in range(f.nvars)), v)
    return f * g


def mul_pair(f, j, k, block):
    """f times the two-variable series ``block`` whose axes 0, 1 are axes j, k
    of f: each nonzero entry of f in flat order meets each nonzero entry of
    the block and adds their product where the shifted index fits the caps."""
    (sj, sk), (cj, ck) = (f._strides[j], f._strides[k]), (f.caps[j], f.caps[k])
    out, terms = TruncatedSeries(f.caps, f.zero), list(block.items())
    for o, x in enumerate(f.data):
        if x != 0:
            ij, ik = o // sj % (cj + 1), o // sk % (ck + 1)
            for (a, b), v in terms:
                if ij + a <= cj and ik + b <= ck:
                    out.data[o + a * sj + b * sk] += x * v
    return out


def offsets_to_degree(caps, top):
    """Flat offsets, ascending, of the entries of total degree <= top in the
    cap box."""
    return [o for o, idx in enumerate(product(*(range(c + 1) for c in caps)))
            if sum(idx) <= top]


def all_pairs_prefactor(factors, caps, a, b):
    """G on the box [0..caps] from the product of the univariate ``factors``
    on the whole box, zero above top = |caps| - s(s-1)/2, and all C(s, 2)
    ``div_pair`` passes on that box, (0, 1), (0, 2), ..., (s-2, s-1)."""
    s = len(caps)
    top = sum(caps) - s * (s - 1) // 2
    degrees, data = [0], [1]
    for u, c in zip(factors, caps):
        data = [x * y if d + m <= top else 0
                for d, x in zip(degrees, data) for m, y in enumerate(u[:c + 1])]
        degrees = [d + m for d in degrees for m in range(c + 1)]
    out, offsets = TruncatedSeries(caps, 0, data), offsets_to_degree(caps, top)
    for j in range(s):
        for k in range(j + 1, s):
            out = out.div_pair(j, k, a, b, offsets)
    return out


def alternant_minors(tables, N, s, B):
    """The ``_minors`` d_S on the rows e <= N-1, each times B^|lambda|,
    lambda_i = S_i - (s - i), keyed by the bitmask of S."""
    cols, offset = [col.coeffs for col in _columns(tables, N, s)], s * (s - 1) // 2
    return {S: d * B ** (sum(e for e in range(N) if S >> e & 1) - offset)
            for S, d in _minors(cols, N - 1, 0).items()}


def dense_alternant(minors, caps):
    """A(Bw) / B^(s(s-1)/2) on the box [0..caps], A = det[f_k(z_j)].

    By Cauchy-Binet, A[alpha] = sgn(p) d_S when alpha_j = S_p(j) for a
    descending exponent set S, and 0 when alpha repeats an entry.  The alpha
    with distinct entries are grown axis by axis with the mask of the
    entries used and the parity of the pairs j < k with alpha_j < alpha_k,
    which is that of p.
    """
    out = TruncatedSeries(caps, 0)
    terms = [(0, 0, 0)]
    for c, stride in zip(caps, out._strides):
        terms = [(o + e * stride, used | 1 << e, odd ^ (used & (1 << e) - 1).bit_count() & 1)
                 for o, used, odd in terms for e in range(c + 1) if not used >> e & 1]
    for o, used, odd in terms:
        out.data[o] = -minors[used] if odd else minors[used]
    return out


def rows_on_box(rows, caps):
    """The engine's rows of the alternant laid out on the box [0..caps]: the
    entry at alpha is row (mask of alpha[:-1], parity of its pairs j < k with
    alpha_j < alpha_k) at alpha[-1], and 0 where alpha[:-1] repeats one."""
    out = TruncatedSeries(caps, 0)
    for o, (*head, e) in enumerate(product(*(range(c + 1) for c in caps))):
        if len(set(head)) == len(head):
            odd = sum(x < y for x, y in combinations(head, 2)) & 1
            out.data[o] = rows[sum(1 << x for x in head), odd][e]
    return out


def _route(N, s, tables, B, D, lin, a, b):
    h = h_polynomial(tables, N, s)
    degrees = [0]
    for _ in range(s):
        degrees = [d + e for d in degrees for e in range(N)]
    powers = [B ** d for d in range(s * (N - 1) + 1)]
    h.data = [x * powers[d] for x, d in zip(h.data, degrees)]
    one = h.zero + 1
    prefactor = constant([N - 1] * s, one, h.zero)
    for j in range(s):
        for _ in range(s - 1 - j):
            prefactor = mul_axis(prefactor, j, [one, lin])
        geometric = geometric_inverse_coeffs(s - j, N - 1, one)
        prefactor = mul_axis(prefactor, j, [c * B ** m for m, c in enumerate(geometric)])
    for j in range(s):
        for k in range(j + 1, s):
            prefactor = pair_ratio(prefactor, j, k, a, b)
    return RouteSeries(s, prefactor, h, (B, D))


def _z_series(N, s, delta, t):
    """The route through h in z, on the scalars of (delta, t)."""
    a, b = 2 * delta * t, t * t
    return _route(N, s, build_h_tables(N, s, delta, t), 1, 1, b - a, a, b)


def _w_series(N, s, delta, t):
    """The route through h on integers in w = z / B, B = q v^2 for
    Delta = p/q and t = u/v; the tables are scaled to integers, D in all."""
    p, q, u, v = delta.numerator, delta.denominator, t.numerator, t.denominator
    B, D = q * v * v, 1
    tables = build_h_tables(N, s, delta, t)
    for n, table in tables.items():
        scale = math.lcm(*(x.denominator for x in table))
        tables[n] = [int(x * scale) for x in table]
        D *= scale
    return _route(N, s, tables, B, D, u * u * q - 2 * p * u * v, 2 * p * u * v,
                  (u * q * v) ** 2)
