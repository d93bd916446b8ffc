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
expands det[f_k(z_j)] from the same ``gefp._columns`` and ``algebra._minors``.
h serves the h-function checks and ``pole_deformation_check``, whose z_s = 1
half checks h_{N,s}(z', 1) = h_{N,s-1}(z').

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
from typing import NamedTuple

from mpmath import mp

from .algebra import Jet, TruncatedSeries, UniPoly, _minors, det, geometric_inverse_coeffs
from .errors import BadIndex, BranchPole, DuplicateRapidity, NotInvertible
from .gefp import (_columns, check_jets_box, check_profile_length, gefp_residue, jets_inputs,
                   jets_workspace)
from .ik import (a_fn, b_fn, homogeneous_partition_jets,
                 partially_inhomogeneous_partition)
from .oracle import YoungProfile, _block_grid, _boundary_sums


def boundary_H_table_via_K(N, lam, eta) -> list:
    """(H^(1), ..., H^(N)) from the s = 1 operator-determinant workspace.

    Its fold c_r of row position r is K_{N-1}(d) omega^(N-r) rho^N |_0, minus
    the cumulative distribution, as an integer over 2^exponent (c_0 = 0).  So
    H^(r) = -(c_r - c_{r-1}) 2^exponent is an integer difference, rounded once.
    N above ``K_ROUTE_N_CAP`` is refused first.
    """
    check_jets_box(N, 1)
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
    """H tables {n: [H_n^(1), ..., H_n^(n)]} for n = N, ..., N-s+1, 1 <= s <= N.

    The weights are built at (Delta, t) in the scalar type given; float
    weights enter the transfer as the dyadic rationals they hold and each
    entry is rounded once.  Each size is a bottom-left block of one N grid,
    so the set costs its N - 1 turned rows and one row per size.  Any other
    s and N above the oracle's default cap are refused before any transfer.
    """
    check_profile_length(N, s)
    grid, tables = _block_grid(N, delta, t), {}
    for n in range(N, N - s, -1):
        h, z = _boundary_sums(grid, n)
        tables[n] = [grid.rounded(Fraction(x, z)) for x in h]
    return tables


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


# ---------------------------------------------------------------------------
# pole deformation consistency report

class PoleDeformationReport(NamedTuple):
    """Operational check of the contour-deformation argument for r_s = N."""

    profile: tuple
    value: object                    # G at the full profile
    reduced_value: object            # G at the profile without its last row
    residue_at_one_matches: bool     # z_s = 1 residue reproduces the reduced case
    pole_contributions_zero: list    # one flag per pole z_s = (2dt z_j - 1)/(t^2 z_j)
    balanced: bool                   # value == reduced_value

    @property
    def ok(self):
        return (self.balanced and self.residue_at_one_matches
                and all(self.pole_contributions_zero))


def pole_deformation_check(N, profile: YoungProfile, delta, t) -> PoleDeformationReport:
    """Verify the deformation bookkeeping for a profile ending at r_s = N.

    (i) the z_s = 1 residue turns the integrand into the shorter one, as
    h_{N,s}(z', 1) = h_{N,s-1}(z') coefficient by coefficient, both from one
    set of H tables; (ii) each residue at z_s = (2 Delta t z_j - 1) /
    (t^2 z_j), expanded around z_j = 0 with the remaining variables at
    generic rational spectator values, has no coefficients below order r_s,
    so it contributes nothing; together these force the balance
    G(r_s = N) = G(shorter profile), which is asserted as well.

    Exact backend only.
    """
    s = profile.s
    if s == 0 or profile.r[-1] != N:
        raise BadIndex("the check needs a nonempty profile with r_s = N")
    value = gefp_residue(N, profile, delta, t).value
    reduced_value = gefp_residue(N, profile.reduced(), delta, t).value
    tables = build_h_tables(N, s, delta, t)
    h = h_polynomial(tables, N, s)
    res_match = h.substitute_value(s - 1, 1).data == h_polynomial(tables, N, s - 1).data
    pole_zero = [_pole_contribution_is_zero(h, profile, j, delta, t) for j in range(s - 1)]
    return PoleDeformationReport(tuple(profile.r), value, reduced_value,
                                 res_match, pole_zero, value == reduced_value)


def _pole_contribution_is_zero(h: TruncatedSeries, profile: YoungProfile, j, delta, t):
    """Expand the pole-j residue term around z_j = 0 and test low orders.

    Spectator variables take distinct generic rational values; the term is a
    univariate Laurent series in z_j after clearing, and every coefficient
    below order r_s must vanish.
    """
    N, s, r = profile.N, profile.s, profile.r
    for attempt in range(5):
        spect = {jp: Fraction(3 + 2 * jp + attempt, 17 + attempt)
                 for jp in range(s - 1) if jp != j}
        try:
            series, shift = _pole_term_series(h, N, s, r, j, spect, delta, t)
        except (NotInvertible, ZeroDivisionError):
            continue
        # term = z_j^(-shift) * series; orders below r_s are entries < shift + r_s
        return all(c == 0 for c in series.coeffs[:shift + r[-1]])
    raise NotInvertible("could not find generic spectator values for the pole check")


def _pole_term_series(h, N, s, r, j, spect, delta, t):
    """Laurent expansion (as shift + Jet in z_j) of the pole-j term."""
    two_dt, t2 = 2 * delta * t, t * t
    lin = t2 - two_dt
    cap = (r[j] - 1) + (N + s + 2)
    one = Fraction(1)

    def jet(coeffs):
        return Jet(coeffs, cap)

    series = Jet.constant(one, cap)
    shift = 0
    const = Fraction(1)
    # ordinary per-variable factors
    for jp in range(s - 1):
        e1, e2 = s - 1 - jp, s - jp          # exponents of lin-factor and (z-1)^-1
        if jp == j:
            series = series * jet([one, lin]) ** e1
            series = series * jet(geometric_inverse_coeffs(e2, cap, one))
        else:
            v = spect[jp]
            const *= (lin * v + 1) ** e1
            const /= (v - 1) ** e2
    # pairs among the first s-1 variables
    for a in range(s - 1):
        for b in range(a + 1, s - 1):
            if a == j:
                vb = spect[b]
                series = series * jet([-vb, one]) / jet([one, t2 * vb - two_dt])
            elif b == j:
                va = spect[a]
                series = series * jet([va, -one]) / jet([one - two_dt * va, t2 * va])
            else:
                va, vb = spect[a], spect[b]
                const *= va - vb
                const /= t2 * va * vb - two_dt * va + 1
    # the z_s parts at the pole z_s = (2 Delta t z_j - 1) / (t^2 z_j)
    shift += 1                                   # residue prefactor 1/(t^2 z_j)
    const /= t2
    series = series * jet([one, -two_dt, t2])    # (z_j - pole) * t^2 z_j
    shift += 1
    const /= t2
    # 1/z_s^(r_s): (t^2 z_j)^(r_s) / (2 Delta t z_j - 1)^(r_s)
    shift -= r[-1]
    const *= t2 ** r[-1]
    series = series / jet([-one, two_dt]) ** r[-1]
    # 1/(z_s - 1): t^2 z_j / ((2 Delta t - t^2) z_j - 1)
    shift -= 1
    const *= t2
    series = series / jet([-one, two_dt - t2])
    # pairs (j', s): numerator (z_j' - pole), denominator -> (z_j - z_j')/z_j
    for jp in range(s - 1):
        if jp == j:
            continue
        v = spect[jp]
        series = series * jet([one, t2 * v - two_dt])
        shift += 1
        const /= t2
        series = series / jet([-v, one])
        shift -= 1
    # h with the spectators substituted (descending so indices stay valid),
    # leaving (z_j, z_s), then z_s at the pole and cleared by z_j^(N-1)
    hsub = h
    for jp in sorted(spect, reverse=True):
        hsub = hsub.substitute_value(jp, spect[jp])
    shift += N - 1
    series = series * jet(reflect_substitute(hsub, 0, delta, t).data) * const
    # with r_s = N the clearings cancel exactly
    assert shift == N - r[-1]
    return series, shift
