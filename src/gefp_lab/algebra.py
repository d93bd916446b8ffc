"""Exact / high-precision linear algebra and truncated-series arithmetic.

Everything here is backend-generic: coefficients may be ``Fraction`` or
``mpmath.mpf`` (or plain ints), and all operations are pure functions of
their inputs.  Determinants of exact matrices use fraction-free elimination;
float matrices use partially pivoted elimination.
"""

import math
from fractions import Fraction
from itertools import product

from mpmath import mp

from .backends import is_exact_scalar
from .errors import NotDivisible, NotInvertible


# ---------------------------------------------------------------------------
# determinants

def det(rows):
    """Determinant of a square matrix given as a sequence of row sequences.

    Singular matrices return zero; this never raises.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if all(is_exact_scalar(x) for r in rows for x in r):
        return _det_bareiss([[Fraction(x) for x in r] for r in rows])
    return _det_pivoted([list(r) for r in rows])


def _det_bareiss(m):
    """Fraction-free (Bareiss) elimination; divisions are exact."""
    n = len(m)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = pivot
    return sign * m[n - 1][n - 1]


def _det_pivoted(m):
    n = len(m)
    sign = 1
    for k in range(n - 1):
        piv, best = k, abs(m[k][k])
        for i in range(k + 1, n):
            if abs(m[i][k]) > best:
                piv, best = i, abs(m[i][k])
        if best == 0:
            return mp.mpf(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    out = mp.mpf(sign)
    for k in range(n):
        out *= m[k][k]
    return out


def perm_sign(p) -> int:
    """Sign of a permutation given as a sequence of distinct sortable items."""
    p = list(p)
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def det_cofactor(rows):
    """Reference determinant by first-row cofactor expansion (test oracle)."""
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
    def variable(cls, zero, one, order):
        """The jet of the expansion variable itself."""
        return cls([zero, one], order)

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
        n = self.order
        out = [self.coeffs[0] * 0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Jet(out, n)

    __rmul__ = __mul__

    def invert(self):
        if self.coeffs[0] == 0:
            raise NotInvertible("jet has zero constant term")
        n = self.order
        inv0 = 1 / self.coeffs[0]
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

    def __rtruediv__(self, other):
        return self.invert() * other

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

    def sin_cos(self):
        """Jets of sin(f) and cos(f), composed through the derivative recurrence
        s' = f' c, c' = -f' s (float backend)."""
        n = self.order
        s = [mp.sin(self.coeffs[0])] + [mp.mpf(0)] * n
        c = [mp.cos(self.coeffs[0])] + [mp.mpf(0)] * n
        for m in range(n):
            acc_s = mp.mpf(0)
            acc_c = mp.mpf(0)
            for i in range(m + 1):
                fp = (i + 1) * self.coeffs[i + 1]
                acc_s += fp * c[m - i]
                acc_c -= fp * s[m - i]
            s[m + 1] = acc_s / (m + 1)
            c[m + 1] = acc_c / (m + 1)
        return Jet(s, n), Jet(c, n)

    def sin(self):
        return self.sin_cos()[0]

    def cos(self):
        return self.sin_cos()[1]

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

    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, x):
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * x + c
        return out

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly([c * other for c in self.coeffs])
        out = [self.coeffs[0] * other.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return UniPoly(out)

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

    def divmod(self, other):
        """Polynomial long division; requires the divisor leading coeff invertible."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly([0]), UniPoly(rem)
        lead = other.coeffs[-1]
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if c != 0:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return UniPoly(quot), UniPoly(rem)

    def __repr__(self):
        return f"UniPoly({self.coeffs!r})"


def poly_div_exact(p: UniPoly, q: UniPoly) -> UniPoly:
    """Quotient p/q, asserting that the remainder is identically zero."""
    quot, rem = p.divmod(q)
    if not rem.is_zero():
        raise NotDivisible(f"nonzero remainder of degree {rem.degree}")
    return quot


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

    # -- construction helpers ------------------------------------------------
    @classmethod
    def constant(cls, caps, value, zero):
        out = cls(caps, zero)
        out.data[0] = value
        return out

    @classmethod
    def from_univariate(cls, coeffs, var, caps, zero):
        """Embed a univariate coefficient list (or Jet) into variable ``var``."""
        if isinstance(coeffs, Jet):
            coeffs = coeffs.coeffs
        out = cls(caps, zero)
        stride = out._strides[var]
        for m, v in enumerate(coeffs):
            if m > caps[var]:
                break
            out.data[m * stride] = v
        return out

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

    def product_coeff(self, other, idx):
        """Coefficient at ``idx`` of ``self * other``, without the product.

        Equal caps give equal strides, so the partner of the entry at flat
        offset ``o`` sits at ``offset(idx) - o``.  Terms are added in flat
        order over the box below ``idx``, skipping zero entries of ``self``.
        """
        if other.caps != self.caps:
            raise ValueError("cap mismatch")
        if any(i < 0 or i > c for i, c in zip(idx, self.caps)):
            raise ValueError(f"index {tuple(idx)} outside caps {self.caps}")
        box = [0]
        for m, stride in zip(idx, self._strides):
            box = [o + i * stride for o in box for i in range(m + 1)]
        top = self._offset(idx)
        a, b = self.data, other.data
        total = self.zero
        for off in box:
            v = a[off]
            if v != 0:
                total = total + v * b[top - off]
        return total

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
    def copy(self):
        return TruncatedSeries(self.caps, self.zero, list(self.data))

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            if other.caps != self.caps:
                raise ValueError("cap mismatch")
            return TruncatedSeries(self.caps, self.zero,
                                   [a + b for a, b in zip(self.data, other.data)])
        out = self.copy()
        out.data[0] = out.data[0] + other
        return out

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.caps, self.zero, [-a for a in self.data])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.caps, self.zero, [a * other for a in self.data])
        if other.caps != self.caps:
            raise ValueError("cap mismatch")
        a, b = self, other
        a_items = list(a.items())
        b_items = list(b.items())
        if len(b_items) < len(a_items):
            a_items, b_items = b_items, a_items
        out = TruncatedSeries(self.caps, self.zero)
        caps = self.caps
        strides = self._strides
        data = out.data
        for i1, v1 in a_items:
            for i2, v2 in b_items:
                off = 0
                ok = True
                for x, y, c, s in zip(i1, i2, caps, strides):
                    t = x + y
                    if t > c:
                        ok = False
                        break
                    off += t * s
                if ok:
                    data[off] = data[off] + v1 * v2
        return out

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse; requires nonzero constant coefficient."""
        c0 = self.data[0]
        if c0 == 0:
            raise NotInvertible("series has zero constant term")
        inv0 = 1 / c0
        out = TruncatedSeries(self.caps, self.zero)
        out.data[0] = inv0
        nz = [(idx, v) for idx, v in self.items() if any(idx)]
        order = sorted(product(*[range(c + 1) for c in self.caps]),
                       key=lambda t: (sum(t), t))
        for idx in order:
            if not any(idx):
                continue
            acc = self.zero
            for i1, v1 in nz:
                if all(a <= b for a, b in zip(i1, idx)):
                    rem = tuple(b - a for a, b in zip(i1, idx))
                    g = out.data[out._offset(rem)]
                    if g != 0:
                        acc = acc + v1 * g
            out.data[out._offset(idx)] = -acc * inv0
        return out

    def pow_int(self, p):
        out = TruncatedSeries.constant(self.caps, self.zero + 1, self.zero)
        for _ in range(p):
            out = out * self
        return out

    def embed(self, caps, var_map):
        """Re-embed into a larger variable space; var_map[i] is the new axis
        of this series' axis i."""
        out = TruncatedSeries(caps, self.zero)
        for idx, v in self.items():
            new = [0] * len(caps)
            ok = True
            for i, m in enumerate(idx):
                new[var_map[i]] = m
                if m > caps[var_map[i]]:
                    ok = False
                    break
            if ok:
                out.data[out._offset(new)] = v
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

    def max_degree(self, var):
        """Largest degree in ``var`` carrying a nonzero coefficient."""
        best = -1
        for idx, _ in self.items():
            if idx[var] > best:
                best = idx[var]
        return best

    def divide_linear(self, j, k, atol=None):
        """Exact division by (z_j - z_k); raises NotDivisible on a remainder.

        With ``atol`` set, remainder entries smaller than atol are treated as
        zero (float backend).
        """
        d_top = self.caps[j]
        layers = [dict() for _ in range(d_top + 1)]
        for idx, v in self.items():
            key = tuple(0 if i == j else x for i, x in enumerate(idx))
            layers[idx[j]][key] = layers[idx[j]].get(key, self.zero) + v
        quot_layers = [None] * d_top
        cur = dict(layers[d_top])
        for d in range(d_top, 0, -1):
            quot_layers[d - 1] = cur
            nxt = dict(layers[d - 1])
            for idx, v in cur.items():
                # transient entries beyond the cap box are fine; they cancel
                idx2 = tuple(x + 1 if i == k else x for i, x in enumerate(idx))
                nxt[idx2] = nxt.get(idx2, self.zero) + v
            cur = nxt
        for idx, v in cur.items():
            if v != 0 and (atol is None or abs(v) > atol):
                raise NotDivisible(f"nonzero remainder at {idx}: {v}")
        out = TruncatedSeries(self.caps, self.zero)
        for d in range(d_top):
            for idx, v in quot_layers[d].items():
                if v == 0 or (atol is not None and abs(v) <= atol):
                    continue
                if any(x > c for x, c in zip(idx, self.caps)) or d > self.caps[j]:
                    raise NotDivisible(f"quotient coefficient outside caps at {idx}")
                full = tuple(d if i == j else x for i, x in enumerate(idx))
                out.data[out._offset(full)] = out.data[out._offset(full)] + v
        return out

    def __repr__(self):
        nz = sum(1 for v in self.data if v != 0)
        return f"TruncatedSeries(caps={self.caps}, nonzero={nz})"


def series_invert(f: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a truncated series (or jet)."""
    return f.invert()


def geometric_inverse_coeffs(p, cap, one):
    """Coefficients of (z - 1)^(-p) as a power series at the origin.

    (z - 1)^(-p) = (-1)^p * sum_m C(m+p-1, p-1) z^m.
    """
    sign = one if p % 2 == 0 else -one
    return [sign * math.comb(m + p - 1, p - 1) for m in range(cap + 1)]
