"""Boundary correlations, their generating functions, and the h machinery.

H_N^(r) is the probability that the unique c-vertex of the top row sits r
columns from the right; h_N(z) = sum_r H_N^(r) z^(r-1) is its generating
polynomial, and h_{N,s}(z) = det[f_k(z_j)] / prod_{j<k} (z_j - z_k) the
s-variable symmetric extension entering the residue engine, with the column
polynomials f_k(z) = z^k (z-1)^(s-1-k) h_{N-k}(z).  ``h_polynomial`` expands
it in Schur polynomials, with the minors of the columns' coefficient matrix
as weights and Kostka numbers as the Schur coefficients, on the tables' own
exact scalars; ``h_multivariate`` evaluates the determinant ratio at a
point, and is the independent check of that expansion.  The residue engine
does not call h: its Vandermonde cancels in the integrand, and the engine
expands det[f_k(z_j)] from the same ``_columns`` and ``_minors``.  h serves
the h-function checks and the pole-deformation report.

Sign convention, pinned against the enumeration oracle: contracting the
K-polynomial of degree N-1 with the expansion of omega^(N-r) rho^N yields
MINUS the cumulative distribution, i.e.

    K_{N-1}(d_eps) [omega(eps)]^(N-r) [rho(eps)]^N |_0  =  - sum_{r' <= r} H_N^(r'),

and that contraction is the operator determinant at s = 1, the fold of row
position r in ``gefp.jets_workspace(N, 1, ...)``.  The point probability is
the difference of consecutive contractions, taken there in integers and
rounded once.  With that reading, the residue identity implemented in
``kfint_check`` holds verbatim and reproduces the oracle, as do all
downstream engines.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from mpmath import mp

from .algebra import Jet, TruncatedSeries, UniPoly, det, signed_subsets
from .errors import BadIndex, BranchPole, DivisionByZero, DuplicateRapidity
from .ik import (a_fn, b_fn, homogeneous_partition_jets,
                 partially_inhomogeneous_partition)
from .oracle import WeightGrid, _boundary_sums
from .params import VertexWeights


class OmegaRho:
    """Jet factory at eps = 0 for the building-block functions.

    omega = (a/b) sin(eps) / sin(eps - 2 eta) vanishes at 0; rho is its
    companion with rho = 1/(omega - 1); omega_tilde is the image of omega
    under eta -> -eta.  Its companion rho_tilde = 1/(1 - omega_tilde) is
    never built: the jets pair block uses both rho in closed form.
    """

    def __init__(self, lam, eta):
        self.lam = mp.mpf(lam)
        self.eta = mp.mpf(eta)
        self.a = a_fn(self.lam, 0, self.eta)
        self.b = b_fn(self.lam, 0, self.eta)
        self.c = mp.sin(2 * self.eta)
        for name, w in (("a = sin(lambda + eta)", self.a), ("b = sin(lambda - eta)", self.b),
                        ("c = sin(2 eta)", self.c)):
            if w == 0:
                raise DivisionByZero(f"{name} vanishes at lambda={self.lam}, eta={self.eta}")

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


def boundary_H_table_via_K(N, lam, eta) -> list:
    """(H^(1), ..., H^(N)) from the s = 1 operator-determinant workspace.

    Its fold c_r of row position r is K_{N-1}(d) omega^(N-r) rho^N |_0, minus
    the cumulative distribution, as an integer over 2^exponent (c_0 = 0).  So
    H^(r) = -(c_r - c_{r-1}) 2^exponent is an integer difference, rounded once.
    """
    from .gefp import jets_workspace
    ws = jets_workspace(N, 1, lam, eta)
    c = [0] + [ws.fold(r)[0][0] for r in range(1, N + 1)]
    return [mp.ldexp(mp.mpf(c[r - 1] - c[r]), ws.exponent) for r in range(1, N + 1)]


def kfint_check(N, f: UniPoly, lam, eta):
    """Both sides of the contraction-residue identity, for f regular at 0.

    Left: K_{N-1}(d_eps) f(omega(eps)) |_0, from the K row and the omega jet
    of the operator determinant's shared inputs.  Right: the residue at
    z = 0 of (z-1)^(N-1) h_N(z) f(z) / z^N, read off as the coefficient of
    z^(N-1) in (z-1)^(N-1) h_N(z) f(z).
    """
    from .gefp import jets_inputs
    inputs = jets_inputs(N, lam, eta)
    # f(omega) by Horner on jets
    comp = Jet.constant(mp.mpf(f.coeffs[-1]), N - 1)
    for c in reversed(f.coeffs[:-1]):
        comp = comp * inputs.omega + mp.mpf(c)
    lhs = sum(k * x for k, x in zip(inputs.k_rows[N - 1], comp.coeffs))
    zm1 = UniPoly([mp.mpf((-1) ** (N - 1 - k) * math.comb(N - 1, k)) for k in range(N)])
    rhs = (zm1 * UniPoly(boundary_H_table_via_K(N, lam, eta)) * f).coeff(N - 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# multivariate h

def build_h_tables(N, s, delta, t):
    """H tables {n: [H_n^(1), ..., H_n^(n)]} for n = N, N-1, ..., N-s+1.

    The weights are built at (Delta, t) in the scalar type given; float
    weights enter the transfer as the dyadic rationals they hold and each
    entry is rounded once.  Each size is a bottom-left block of one N grid,
    so the set costs its N - 1 turned rows and one row per size.  N above
    the oracle's default cap is refused before any transfer.
    """
    grid, sums = _block_sums(N, s, delta, t)
    return {n: [grid.rounded(Fraction(x, z)) for x in h] for n, (h, z) in sums.items()}


def _block_sums(N, s, delta, t):
    """The N grid at (Delta, t) and {n: ``_boundary_sums(grid, n)``}, n = N..N-s+1."""
    grid = WeightGrid.from_weights(N, VertexWeights.from_delta_t(delta, t, allow_nonphysical=True))
    return grid, {n: _boundary_sums(grid, n) for n in range(N, N - s, -1)}


def _columns(tables, N, s):
    """Column polynomials z^k (z-1)^(s-1-k) h_{N-k}(z) for k = 0..s-1."""
    zm1 = UniPoly([-1, 1])
    cols = []
    for k in range(s):
        poly = UniPoly([tables[N - k][0] * 0 + 1])
        for _ in range(s - 1 - k):
            poly = poly * zm1
        poly = poly * UniPoly(tables[N - k])
        cols.append(UniPoly([0] * k + poly.coeffs))
    return cols


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


@lru_cache(maxsize=8)
def _kostka(width, s):
    """Kostka numbers K_{lambda, mu} for every partition mu in the s x width box.

    Returns (mu, ((lambda, K_{lambda, mu}), ...)) pairs, parts padded with
    zeros to length s.  A semistandard tableau of content mu is a chain of
    horizontal strips of sizes mu_1, mu_2, ..., so the counts are grown strip
    by strip, depth first over mu so that partitions sharing a prefix share
    its states, and every shape is kept inside the box.  The numbers depend
    on (width, s) only, so both backends and every parameter point share them.
    """
    out = []

    def strips(shape, m, i=0):
        """Rows i.. of the shapes that add a horizontal strip of m boxes."""
        if i == s:
            if m == 0:
                yield ()
            return
        room = (width if i == 0 else shape[i - 1]) - shape[i]
        for a in range(min(room, m) + 1):
            for rest in strips(shape, m - a, i + 1):
                yield (shape[i] + a,) + rest

    def grow(mu, states):
        if len(mu) == s:
            out.append((mu, tuple(sorted(states.items()))))
            return
        for m in range(mu[-1] if mu else width, -1, -1):
            nxt = {}
            for shape, count in states.items():
                for nu in strips(shape, m):
                    nxt[nu] = nxt.get(nu, 0) + count
            grow(mu + (m,), nxt)

    grow((), {(0,) * s: 1})
    return tuple(out)


def h_polynomial(tables, N, s) -> TruncatedSeries:
    """The s-variable h as an explicit polynomial (caps N-1 per variable).

    By Cauchy-Binet over the column-coefficient matrix of ``_columns``,
    det[f_k(z_j)] = sum_lambda d_lambda a_{lambda + delta}(z), so dividing by
    the Vandermonde a_delta(z) gives h = sum_lambda d_lambda s_lambda(z) over
    lambda in the s x (N-1) box (Macdonald, ch. I).  The coefficient of z^alpha
    in s_lambda is the Kostka number K_{lambda, sort(alpha)}, so each sorted
    alpha takes one sum over lambda and is copied to its permutations.  The
    sums run on the tables' own scalars: integer tables give integer minors
    and entries.
    """
    if s > N:
        raise BadIndex(f"s={s} exceeds N={N}")
    zero = tables[N][0] * 0
    kostka = _kostka(N - 1, s)
    minors = _minors([col.coeffs for col in _columns(tables, N, s)], N + s - 2, zero)
    d = {lam: minors[sum(1 << x + s - 1 - i for i, x in enumerate(lam))] for lam, _ in kostka}
    h = {mu: sum((d[lam] * k for lam, k in row), zero) for mu, row in kostka}
    data = [h[tuple(sorted(alpha, reverse=True))]
            for alpha in product(range(N), repeat=s)]
    return TruncatedSeries([N - 1] * s, zero, data)


def h_multivariate(tables, N, s, z):
    """h_{N,s} evaluated at z, confluent-safe.

    Sorts the arguments (the function is symmetric), groups equal values,
    and replaces repeated rows by Taylor rows, so coincident arguments never
    divide by zero.
    """
    if s > N:
        raise BadIndex(f"s={s} exceeds N={N}")
    if len(z) != s:
        raise BadIndex(f"expected {s} arguments, got {len(z)}")
    if s == 0:
        return tables[N][0] * 0 + 1
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
    z_inhom = partially_inhomogeneous_partition(lams, eta)
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
