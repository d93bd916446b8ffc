"""Exact / high-precision linear algebra and truncated-series arithmetic.

Everything here is backend-generic: coefficients may be ``Fraction`` or
``mpmath.mpf`` (or plain ints), and all operations are pure functions of
their inputs.  Determinants run one partially pivoted elimination, exact
entries as ``Fraction``; ``signed_subsets`` is the one Laplace plan, read
upward by ``signed_supersets``, of the minors, alternants and contractions.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import le

from mpmath import mp

from .backends import is_exact_scalar
from .errors import NotInvertible


# ---------------------------------------------------------------------------
# determinants

def det(rows):
    """Determinant of a square matrix given as a sequence of row sequences.

    Exact entries (int or ``Fraction``) are taken as ``Fraction``; every
    matrix runs the same partially pivoted elimination.  Singular matrices
    return zero; this never raises.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    exact = all(is_exact_scalar(x) for r in rows for x in r)
    m = [[Fraction(x) for x in r] if exact else list(r) for r in rows]
    one = Fraction(1) if exact else mp.mpf(1)
    sign = 1
    for k in range(n - 1):
        piv, best = k, abs(m[k][k])
        for i in range(k + 1, n):
            if abs(m[i][k]) > best:
                piv, best = i, abs(m[i][k])
        if best == 0:
            return one * 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    out = one * sign
    for k in range(n):
        out *= m[k][k]
    return out


@lru_cache(maxsize=None)
def signed_subsets(n):
    """The Laplace steps over the subsets of range(n), by size.

    Entry k lists every k-subset as a bitmask, in ascending order, each with
    one term (j, the subset without j, the parity of the members below j)
    per member j, ascending.  With the subset's members in descending order,
    that parity is the Laplace sign of member j along the last column.
    """
    plan = [[] for _ in range(n + 1)]
    for used in range(1 << n):
        terms, rest = [], used
        while rest:                     # members ascending: the lowest bit left
            low = rest & -rest
            terms.append((low.bit_length() - 1, used ^ low, len(terms) & 1))
            rest ^= low
        plan[len(terms)].append((used, tuple(terms)))
    return tuple(map(tuple, plan))


@lru_cache(maxsize=None)
def signed_supersets(n, k):
    """The Laplace steps of ``signed_subsets(n)[k + 1]`` read upward: each
    k-subset maps to the steps (j, the subset with j added, its parity) that
    add a member j to it, j ascending."""
    steps = {}
    for used, terms in signed_subsets(n)[k + 1]:
        for j, rest, odd in terms:
            steps.setdefault(rest, []).append((j, used, odd))
    return steps


def _minors(cols, top, zero):
    """Every s x s minor d_S of the column-coefficient matrix C[e][k].

    ``cols[k]`` lists C[e][k] for e = 0, 1, ...; rows run over e <= top.  A
    row set S is keyed by its bitmask and read in descending order
    (e_1 > ... > e_s), so the minor belongs to the partition
    lambda_i = e_i - (s - i).  Column k is added by Laplace expansion along
    it over the (k+1)-row sets of ``signed_subsets``, each minor one sum
    from the top row down.
    """
    plan = signed_subsets(top + 1)
    level = {0: zero + 1}
    for k, col in enumerate(cols):
        nxt = {}
        for S, terms in plan[k + 1]:
            total = zero
            for e, rest, odd in reversed(terms):
                x = col[e] if e < len(col) else 0
                if x != 0:
                    minor = level[rest]
                    if minor != 0:
                        total += -x * minor if odd else x * minor
            nxt[S] = total
        level = nxt
    return level


def perm_sign(p) -> int:
    """Sign of a permutation given as a sequence of distinct sortable items."""
    p = list(p)
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# univariate products

def _convolve(a, b, size, zero):
    """The first ``size`` coefficients of the product of coefficient lists.

    Each coefficient is summed over the nonzero entries of ``a`` in order,
    skipping zero entries of ``b``.  Zeros are found by truth value, which
    on an mpf reads its tuple where ``== 0`` runs a context comparison.
    """
    out = [zero] * size
    for i, x in enumerate(a[:size]):
        if not x:
            continue
        for j, y in enumerate(b[:size - i]):
            if y:
                out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# univariate jets (truncated Taylor expansions around a base point)

class Jet:
    """Truncated Taylor expansion: coeffs[m] is the order-m Taylor coefficient.

    The derivative of order m at the base point is ``coeffs[m] * m!``.
    Arithmetic truncates at the order cap of the left operand.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) < order + 1:
            coeffs += [coeffs[0] * 0] * (order + 1 - len(coeffs))
        self.coeffs = coeffs[: order + 1]
        self.order = order

    @classmethod
    def constant(cls, value, order):
        return cls([value], order)

    @classmethod
    def sin_offset(cls, theta, order):
        """Jet of x -> sin(x + theta) around 0, in the float backend."""
        s, c = mp.sin(theta), mp.cos(theta)
        cycle = (s, c, -s, -c)
        coeffs = []
        fact = mp.mpf(1)
        for m in range(order + 1):
            if m > 0:
                fact *= m
            coeffs.append(cycle[m % 4] / fact)
        return cls(coeffs, order)

    def derivative(self, m):
        return self.coeffs[m] * math.factorial(m)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)
        out = list(self.coeffs)
        out[0] = out[0] + other
        return Jet(out, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([a * other for a in self.coeffs], self.order)
        return Jet(_convolve(self.coeffs, other.coeffs, self.order + 1,
                             self.coeffs[0] * 0), self.order)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse; an exact constant term keeps the entries exact."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise NotInvertible("jet has zero constant term")
        n = self.order
        inv0 = Fraction(1, c0) if is_exact_scalar(c0) else 1 / c0
        out = [inv0]
        for m in range(1, n + 1):
            acc = None
            for i in range(1, m + 1):
                t = self.coeffs[i] * out[m - i]
                acc = t if acc is None else acc + t
            out.append(-acc * inv0)
        return Jet(out, n)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.invert()
        return Jet([a / other for a in self.coeffs], self.order)

    def __pow__(self, p):
        if p < 0:
            return self.invert() ** (-p)
        out = Jet.constant(self.coeffs[0] * 0 + 1, self.order)
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base
            p >>= 1
        return out

    def __repr__(self):
        return f"Jet({self.coeffs!r})"


# ---------------------------------------------------------------------------
# univariate polynomials

class UniPoly:
    """Dense univariate polynomial; trailing zero coefficients are stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * x + c
        return out

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        return UniPoly(_convolve(self.coeffs, other.coeffs,
                                 len(self.coeffs) + len(other.coeffs) - 1,
                                 self.coeffs[0] * other.coeffs[0] * 0))

    __rmul__ = __mul__

    def coeff(self, m):
        return self.coeffs[m] if m < len(self.coeffs) else self.coeffs[0] * 0

    def taylor_jet(self, x0, order):
        """Jet of x -> p(x0 + x) around 0, valid in both backends."""
        out = [self.coeffs[0] * 0] * (order + 1)
        for d, a in enumerate(self.coeffs):
            if a == 0:
                continue
            power = a  # holds a * x0^(d-m) while m runs downward
            top = min(d, order)
            for _ in range(d - top):
                power = power * x0
            for m in range(top, -1, -1):
                out[m] += power * math.comb(d, m)
                if m > 0:
                    power = power * x0
        return Jet(out, order)

    def __repr__(self):
        return f"UniPoly({self.coeffs!r})"


# ---------------------------------------------------------------------------
# multivariate truncated power series

class TruncatedSeries:
    """Power series in s variables truncated to per-variable degree caps.

    Coefficients are stored densely over the cap box in a flat list (the caps
    used in this package stay small).  Index tuples run coordinate-wise from
    (0,...,0) to ``caps``.
    """

    __slots__ = ("caps", "zero", "data", "_strides")

    def __init__(self, caps, zero, data=None):
        self.caps = tuple(int(c) for c in caps)
        self.zero = zero
        strides = []
        size = 1
        for c in reversed(self.caps):
            strides.append(size)
            size *= c + 1
        self._strides = tuple(reversed(strides))
        if data is None:
            data = [zero] * size
        self.data = data

    @property
    def nvars(self):
        return len(self.caps)

    def _offset(self, idx):
        off = 0
        for i, s in zip(idx, self._strides):
            off += i * s
        return off

    def coeff(self, idx):
        for i, c in zip(idx, self.caps):
            if i < 0 or i > c:
                return self.zero
        return self.data[self._offset(idx)]

    def set_coeff(self, idx, value):
        self.data[self._offset(idx)] = value

    def items(self):
        """Yield (index_tuple, coefficient) for nonzero coefficients."""
        for flat, v in enumerate(self.data):
            if v == 0:
                continue
            idx = []
            rem = flat
            for s in self._strides:
                idx.append(rem // s)
                rem %= s
            yield tuple(idx), v

    # -- arithmetic -----------------------------------------------------------
    def __mul__(self, other):
        """The truncated product; a scalar scales every entry.  Each nonzero
        entry of ``self`` in flat order meets each nonzero entry of ``other``
        in flat order and adds their product, from ``zero``, at the summed
        index when it lies in the caps."""
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.caps, self.zero, [a * other for a in self.data])
        if other.caps != self.caps:
            raise ValueError("cap mismatch")
        out = TruncatedSeries(self.caps, self.zero)
        theirs = [(self._offset(idx), idx, y) for idx, y in other.items()]
        for idx, x in self.items():
            o, room = self._offset(idx), [c - i for c, i in zip(self.caps, idx)]
            for shift, exps, y in theirs:
                if all(map(le, exps, room)):
                    out.data[o + shift] += x * y
        return out

    __rmul__ = __mul__

    def div_pair(self, j, k, a, b, offsets):
        """``self`` divided by 1 - a z_j + b z_j z_k, filled on the flat
        ``offsets`` alone: ascending, those of the entries of total degree
        <= some top.

        The quotient q of D = self is filled in flat order by
        q[o] = D[o] + a q[o - e_j] - b q[o - e_j - e_k], summed left to right
        over the terms whose index is not negative.  An entry reads only
        entries of lower total degree, so filling only the entries of total
        degree <= top, and leaving the rest zero, changes none of them.
        """
        sj, sk = self._strides[j], self._strides[k]
        nj, nk = self.caps[j] + 1, self.caps[k] + 1
        d, q = self.data, [self.zero] * len(self.data)
        for o in offsets:
            x = d[o]
            if o // sj % nj:
                x = x + a * q[o - sj]
                if o // sk % nk:
                    x = x - b * q[o - sj - sk]
            q[o] = x
        return TruncatedSeries(self.caps, self.zero, q)

    def invert(self):
        """Multiplicative inverse; requires nonzero constant coefficient.

        Entries are filled in flat order.  Each one starts at ``zero`` and
        adds, over this series' nonzero non-constant entries in flat order,
        the entry times the inverse's nonzero entry at the offset difference.
        An exact constant term is inverted as a ``Fraction``, so an int series
        gets an exact inverse.
        """
        c0 = self.data[0]
        if c0 == 0:
            raise NotInvertible("series has zero constant term")
        out = TruncatedSeries(self.caps, self.zero)
        data = out.data
        inv0 = data[0] = Fraction(1, c0) if is_exact_scalar(c0) else 1 / c0
        nz = [(self._offset(idx), idx, v) for idx, v in self.items() if any(idx)]
        for o, idx in enumerate(product(*[range(c + 1) for c in self.caps])):
            if o == 0:
                continue
            acc = self.zero
            for shift, exps, v in nz:
                if all(map(le, exps, idx)):
                    g = data[o - shift]
                    if g != 0:
                        acc = acc + v * g
            data[o] = -acc * inv0
        return out

    def substitute_value(self, var, value):
        """Evaluate variable ``var`` at a scalar; returns a series in the rest."""
        new_caps = tuple(c for i, c in enumerate(self.caps) if i != var)
        out = TruncatedSeries(new_caps, self.zero)
        powers = [self.zero + 1]
        for _ in range(self.caps[var]):
            powers.append(powers[-1] * value)
        for idx, v in self.items():
            rest = tuple(x for i, x in enumerate(idx) if i != var)
            off = out._offset(rest)
            out.data[off] = out.data[off] + v * powers[idx[var]]
        return out

    def __repr__(self):
        nz = sum(1 for v in self.data if v != 0)
        return f"TruncatedSeries(caps={self.caps}, nonzero={nz})"


@lru_cache(maxsize=16)
def staircase_planes(N, s):
    """The staircase S(N, s), the points of [0..N-1]^s whose t-th largest
    entry is at most N - 1 - t, as (rest, tops) planes: (rest, p, q) is in S
    iff q <= tops[p].  S is symmetric, so this serves every pair of axes."""
    tops_of = {}
    for key in set(map(tuple, map(sorted, product(range(N), repeat=s - 2)))):
        tops_of[key] = tops = []
        for p, q in product(range(N), repeat=2):
            if all(map(le, sorted(key + (p, q)), range(N - s, N))):
                tops[p:] = [q]
    return [(rest, tops_of[tuple(sorted(rest))]) for rest in product(range(N), repeat=s - 2)]


def geometric_inverse_coeffs(p, cap, one):
    """Coefficients of (z - 1)^(-p) as a power series at the origin.

    (z - 1)^(-p) = (-1)^p * sum_m C(m+p-1, p-1) z^m.
    """
    sign = one if p % 2 == 0 else -one
    return [sign * math.comb(m + p - 1, p - 1) for m in range(cap + 1)]
