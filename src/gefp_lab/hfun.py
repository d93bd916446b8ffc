"""Boundary correlations, their generating functions, and the h machinery.

H_N^(r) is the probability that the unique c-vertex of the top row sits r
columns from the right; h_N(z) = sum_r H_N^(r) z^(r-1) is its generating
polynomial, and h_{N,s} the s-variable symmetric extension entering the
residue engine.

Sign convention, pinned against the enumeration oracle: contracting the
K-polynomial of degree N-1 with the expansion of omega^(N-r) rho^N yields
MINUS the cumulative distribution, i.e.

    K_{N-1}(d_eps) [omega(eps)]^(N-r) [rho(eps)]^N |_0  =  - sum_{r' <= r} H_N^(r'),

so the point probability is the difference of consecutive contractions.
With that reading, the residue identity implemented in ``kfint_check`` holds
verbatim and reproduces the oracle, as do all downstream engines.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from mpmath import mp

from .algebra import Jet, TruncatedSeries, UniPoly, det, perm_sign
from .backends import EXACT, FLOAT
from .errors import (BadIndex, BranchPole, DuplicateRapidity, NotDivisible,
                     Unsupported)
from .ik import (a_fn, b_fn, homogeneous_partition_jets, k_polynomial,
                 partially_inhomogeneous_partition)
from .oracle import WeightGrid, boundary_distribution_oracle
from .params import VertexWeights, delta_t_from_trig


@dataclass(frozen=True)
class HTable:
    """Boundary distribution (H^(1), ..., H^(N)) for one lattice size."""

    N: int
    values: tuple
    backend: str

    def __post_init__(self):
        if len(self.values) != self.N:
            raise BadIndex(f"expected {self.N} entries, got {len(self.values)}")

    def polynomial(self) -> UniPoly:
        return UniPoly(list(self.values))


class OmegaRho:
    """Jet factory at eps = 0 for the four building-block functions.

    omega = (a/b) sin(eps) / sin(eps - 2 eta) vanishes at 0; rho is its
    companion with rho = 1/(omega - 1); the tilde pair is the image under
    eta -> -eta, expressed rationally through omega and (Delta, t).
    """

    def __init__(self, lam, eta):
        self.lam = mp.mpf(lam)
        self.eta = mp.mpf(eta)
        self.a = a_fn(self.lam, 0, self.eta)
        self.b = b_fn(self.lam, 0, self.eta)
        self.c = mp.sin(2 * self.eta)
        self.delta, self.t = delta_t_from_trig(self.lam, self.eta)

    def omega(self, order) -> Jet:
        num = Jet.sin_offset(mp.mpf(0), order)
        den = Jet.sin_offset(-2 * self.eta, order)
        return num * den.invert() * (self.a / self.b)

    def rho(self, order) -> Jet:
        num = Jet.sin_offset(-2 * self.eta, order)
        den = Jet.sin_offset(self.lam - self.eta, order)
        return num * den.invert() * (self.b / self.c)

    def omega_tilde(self, order) -> Jet:
        num = Jet.sin_offset(mp.mpf(0), order)
        den = Jet.sin_offset(2 * self.eta, order)
        return num * den.invert() * (self.b / self.a)

    def rho_tilde(self, order) -> Jet:
        return (1 - self.omega_tilde(order)).invert()


def _cumulative_contractions(N, lam, eta):
    """List F[m] = K_{N-1}(d) omega^m rho^N |_0 for m = 0..N; F[m] = -G_{N,1}^(N-m)."""
    fns = OmegaRho(lam, eta)
    order = N - 1
    kc = k_polynomial(N - 1, lam, eta).coeffs
    om = fns.omega(order)
    rho = fns.rho(order)
    rho_n = rho ** N
    out = []
    power = Jet.constant(mp.mpf(1), order)
    for m in range(N + 1):
        f = power * rho_n
        val = mp.mpf(0)
        for q, kq in enumerate(kc):
            if q <= order:
                val += kq * math.factorial(q) * f.coeffs[q]
        out.append(val)
        power = power * om
    return out


def boundary_H_via_K(N, r, lam, eta):
    """H_N^(r) from the K-polynomial contraction (float backend)."""
    if not 1 <= r <= N:
        raise BadIndex(f"r={r} outside 1..{N}")
    F = _cumulative_contractions(N, lam, eta)
    return F[N - r + 1] - F[N - r]


def boundary_H_table_via_K(N, lam, eta) -> HTable:
    F = _cumulative_contractions(N, lam, eta)
    vals = tuple(F[N - r + 1] - F[N - r] for r in range(1, N + 1))
    return HTable(N, vals, FLOAT)


def boundary_H_table_oracle(N, weights: VertexWeights) -> HTable:
    grid = WeightGrid.from_weights(N, weights)
    return HTable(N, tuple(boundary_distribution_oracle(grid)), weights.backend)


def h_generating(table: HTable) -> UniPoly:
    """h_N(z) = sum_r H_N^(r) z^(r-1); normalized so h_N(1) = 1."""
    return table.polynomial()


def kfint_check(N, f: UniPoly, lam, eta):
    """Both sides of the contraction-residue identity, for f regular at 0.

    Left: K_{N-1}(d_eps) f(omega(eps)) |_0.  Right: the residue at z = 0 of
    (z-1)^(N-1) h_N(z) f(z) / z^N, read off as the coefficient of z^(N-1)
    in (z-1)^(N-1) h_N(z) f(z).
    """
    fns = OmegaRho(lam, eta)
    order = N - 1
    kc = k_polynomial(N - 1, lam, eta).coeffs
    om = fns.omega(order)
    # f(omega) by Horner on jets
    comp = Jet.constant(mp.mpf(f.coeffs[-1]), order)
    for c in reversed(f.coeffs[:-1]):
        comp = comp * om + mp.mpf(c)
    lhs = mp.mpf(0)
    for q, kq in enumerate(kc):
        if q <= order:
            lhs += kq * math.factorial(q) * comp.coeffs[q]
    table = boundary_H_table_via_K(N, lam, eta)
    zpoly = UniPoly([-1, 1])
    acc = UniPoly([mp.mpf(1)])
    for _ in range(N - 1):
        acc = acc * zpoly
    rhs_poly = acc * table.polynomial() * f
    rhs = rhs_poly.coeff(N - 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# multivariate h

def build_h_tables(N, s, *, delta=None, t=None, lam=None, eta=None,
                   backend=EXACT, allow_nonphysical=True):
    """H tables for sizes N-s+1..N at shared parameters.

    The exact backend builds them from the enumeration oracle at (Delta, t);
    the float backend from the K-polynomial contraction at (lambda, eta).
    """
    tables = {}
    if backend == EXACT:
        if delta is None or t is None:
            raise Unsupported("exact h tables require (delta, t)")
        w = VertexWeights.from_delta_t(Fraction(delta), Fraction(t),
                                       allow_nonphysical=allow_nonphysical)
        for n in range(N - s + 1, N + 1):
            tables[n] = boundary_H_table_oracle(n, w)
    else:
        if lam is None or eta is None:
            raise Unsupported("float h tables require (lambda, eta)")
        for n in range(N - s + 1, N + 1):
            tables[n] = boundary_H_table_via_K(n, lam, eta)
    return tables


def _columns(tables, N, s):
    """Column polynomials z^k (z-1)^(s-1-k) h_{N-k}(z) for k = 0..s-1."""
    zm1 = UniPoly([-1, 1])
    cols = []
    for k in range(s):
        poly = UniPoly([tables[N - k].values[0] * 0 + 1])
        for _ in range(s - 1 - k):
            poly = poly * zm1
        poly = poly * tables[N - k].polynomial()
        cols.append(UniPoly([0] * k + poly.coeffs))
    return cols


def _interp_nodes(s, j, count, exact):
    """count distinct nodes for variable j, collision-free across variables."""
    if exact:
        off = Fraction(j + 1, s + 1)
        return [off + i for i in range(count)]
    off = mp.mpf(j + 1) / (s + 1)
    return [off + i for i in range(count)]


def _newton_coeffs(xs, ys):
    """Monomial coefficients of the interpolating polynomial through (xs, ys)."""
    n = len(xs)
    zero = ys[0] * 0
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form
    coeffs = [dd[n - 1]]
    for i in range(n - 2, -1, -1):
        nxt = [zero] * (len(coeffs) + 1)
        for m, cm in enumerate(coeffs):
            nxt[m + 1] += cm
            nxt[m] -= cm * xs[i]
        nxt[0] += dd[i]
        coeffs = nxt
    return coeffs + [zero] * (n - len(coeffs))


def _raw_h_value(matrix, z):
    """det[f_k(z_j)] / prod_{j<k} (z_j - z_k) at pairwise-distinct z."""
    vdm = None
    for j in range(len(z)):
        for k in range(j + 1, len(z)):
            f = z[j] - z[k]
            vdm = f if vdm is None else vdm * f
    d = det(matrix)
    return d if vdm is None else d / vdm


def h_polynomial(tables, N, s, method="interpolate") -> TruncatedSeries:
    """The s-variable h as an explicit polynomial (caps N-1 per variable).

    ``interpolate`` builds the s column polynomials f_k once, evaluates each
    at the N nodes of every variable (s*N evaluations per variable), takes
    the N^s determinants det[f_k(z_j)] of size s x s on the collision-free
    tensor grid, divides each by its Vandermonde product, interpolates the
    values to monomial coefficients and re-checks one off-grid point.
    ``divide`` expands the numerator determinant and divides out the
    Vandermonde factors exactly, asserting zero remainders.
    """
    some = tables[N].values[0]
    exact = not isinstance(some, mp.mpf)
    zero = some * 0
    caps = [N - 1] * s
    if s > N:
        raise BadIndex(f"s={s} exceeds N={N}")
    cols = _columns(tables, N, s)
    if method == "divide":
        return _h_poly_divide(cols, N, s, zero)
    # tensor grid evaluation; row j of each matrix depends on z_j alone
    nodes = [_interp_nodes(s, j, N, exact) for j in range(s)]
    rows = [[[col(x) for col in cols] for x in nodes[j]] for j in range(s)]
    size = N ** s
    values = []
    grid_scale = zero + 1
    for idx in product(range(N), repeat=s):
        values.append(_raw_h_value([rows[j][i] for j, i in enumerate(idx)],
                                   [nodes[j][i] for j, i in enumerate(idx)]))
        grid_scale = max(grid_scale, abs(values[-1]))
    # axis-by-axis interpolation to monomial coefficients
    for axis in range(s):
        stride = N ** (s - 1 - axis)
        block = stride * N
        for base in range(0, size, block):
            for off in range(stride):
                ys = [values[base + off + i * stride] for i in range(N)]
                cs = _newton_coeffs(nodes[axis], ys)
                for i in range(N):
                    values[base + off + i * stride] = cs[i]
    out = TruncatedSeries(caps, zero, values)
    # off-grid consistency check of the reconstruction
    probe = [_interp_nodes(s, j, N + 1, exact)[N] + (Fraction(1, s + 2) if exact
             else mp.mpf(1) / (s + 2)) for j in range(s)]
    direct = _raw_h_value([[col(x) for col in cols] for x in probe], probe)
    interp = _eval_series(out, probe)
    if exact:
        ok = direct == interp
    else:
        # reconstruction noise scales with the largest value met on the grid
        # and with the probe value itself
        tol = mp.mpf(2) ** (32 - mp.prec) * (grid_scale + abs(direct) + 1)
        ok = abs(direct - interp) <= tol
    if not ok:
        raise NotDivisible("interpolated h fails the off-grid consistency check")
    return out


def _eval_series(series: TruncatedSeries, z):
    total = series.zero
    for idx, v in series.items():
        term = v
        for j, m in enumerate(idx):
            for _ in range(m):
                term = term * z[j]
        total = total + term
    return total


def _h_poly_divide(cols, N, s, zero):
    bigcaps = [N + s - 2] * s
    acc = TruncatedSeries(bigcaps, zero)
    for p in permutations(range(s)):
        sgn = perm_sign(p)
        term = TruncatedSeries.constant(bigcaps, zero + sgn, zero)
        for j in range(s):
            term = term * TruncatedSeries.from_univariate(
                cols[p[j]].coeffs, j, bigcaps, zero)
        acc = acc + term
    for j in range(s):
        for k in range(j + 1, s):
            acc = acc.divide_linear(j, k)
    caps = [N - 1] * s
    out = TruncatedSeries(caps, zero)
    for idx, v in acc.items():
        if any(x > N - 1 for x in idx):
            raise NotDivisible(f"h has unexpected degree at {idx}")
        out.set_coeff(idx, v)
    return out


def h_multivariate(tables, N, s, z, symbolic=False):
    """h_{N,s} evaluated at z (confluent-safe) or returned as a polynomial.

    Numeric mode sorts the arguments (the function is symmetric), groups
    equal values, and replaces repeated rows by Taylor rows, so coincident
    arguments never divide by zero.  Symbolic mode goes through exact
    determinant division.
    """
    if s > N:
        raise BadIndex(f"s={s} exceeds N={N}")
    if symbolic:
        return h_polynomial(tables, N, s, method="divide")
    if len(z) != s:
        raise BadIndex(f"expected {s} arguments, got {len(z)}")
    if s == 0:
        return tables[N].values[0] * 0 + 1
    zs = sorted(z)
    groups = []
    for val in zs:
        if groups and groups[-1][0] == val:
            groups[-1][1] += 1
        else:
            groups.append([val, 1])
    cols = _columns(tables, N, s)
    rows = []
    sign = 1
    denom = None
    for gi, (val, mult) in enumerate(groups):
        sign *= (-1) ** (mult * (mult - 1) // 2)
        jets = [cols[k].taylor_jet(val, mult - 1) for k in range(s)]
        for order in range(mult):
            rows.append([jets[k].coeffs[order] for k in range(s)])
        for gj in range(gi + 1, len(groups)):
            f = (val - groups[gj][0]) ** (mult * groups[gj][1])
            denom = f if denom is None else denom * f
    d = det(rows) * sign
    return d if denom is None else d / denom


def h_via_inhomogeneous_Z(z, lam, eta):
    """h_{N,N} from the ratio of inhomogeneous to homogeneous partition sums.

    Each z_j maps to a rapidity through the principal branch of
    tan(lambda_j) = tan(eta) (1 + t z_j) / (1 - t z_j); the branch choice is
    validated by round-tripping back to z_j.
    """
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    z = [mp.mpf(x) for x in z]
    n = len(z)
    for i in range(n):
        for j in range(i + 1, n):
            if z[i] == z[j]:
                raise DuplicateRapidity(f"duplicate z at positions {i + 1}, {j + 1}")
    a = a_fn(lam, 0, eta)
    b = b_fn(lam, 0, eta)
    t = b / a
    lams = []
    for x in z:
        w = t * x
        if w == 1:
            raise BranchPole(f"z = 1/t = {x} sits on the rapidity branch point")
        lj = mp.atan(mp.tan(eta) * (1 + w) / (1 - w))
        back = b_fn(lj, 0, eta) / a_fn(lj, 0, eta)
        if abs(back - w) > mp.mpf(2) ** (24 - mp.prec) * (1 + abs(w)):
            raise BranchPole(f"rapidity inversion failed to round-trip at z={x}")
        lams.append(lj)
    z_inhom = partially_inhomogeneous_partition(lams, eta, order=n - 1)
    z_hom = homogeneous_partition_jets(n, lam, eta)
    ratio = z_inhom / z_hom
    for lj in lams:
        ratio *= (a / a_fn(lj, 0, eta)) ** (n - 1)
    return ratio


def reflect_substitute(hpoly: TruncatedSeries, j, delta, t):
    """Series of z_j^(N-1) * h(..., z_last -> (2 Delta t z_j - 1)/(t^2 z_j)).

    The substitution targets the last variable; clearing by z_j^(N-1) makes
    the result polynomial.  Entirety of the substituted h in z_j means all
    coefficients with z_j-degree below N-1 vanish; the simple zero at
    z_j = 0 additionally kills the degree N-1 layer.
    """
    s = hpoly.nvars
    if s < 2:
        raise BadIndex("reflection substitution needs at least two variables")
    if j >= s - 1:
        raise BadIndex("the substituted index must precede the last variable")
    nm1 = hpoly.caps[-1]
    caps = list(hpoly.caps[:-1])
    caps[j] = caps[j] + nm1
    out = TruncatedSeries(caps, hpoly.zero)
    two_dt = 2 * delta * t
    t2 = t * t
    for idx, v in hpoly.items():
        d = idx[-1]
        base = list(idx[:-1])
        # v * z_j^(m_j + N-1-d) * (2 Delta t z_j - 1)^d / t^(2d)
        scale = v / t2 ** d
        for q in range(d + 1):
            coeff = scale * math.comb(d, q) * (two_dt ** q) * ((-1) ** (d - q))
            tgt = list(base)
            tgt[j] = idx[j] + (nm1 - d) + q
            out.set_coeff(tuple(tgt), out.coeff(tuple(tgt)) + coeff)
    return out
