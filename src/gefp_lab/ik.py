"""Determinant engines for the partition function and the inhomogeneous GEFP.

The partition function of the fully inhomogeneous model is an N x N
determinant of phi(lambda, nu) = c / (a(lambda, nu) b(lambda, nu)) dressed
with weight products and Vandermonde-type denominators.  Its homogeneous
limit turns its entries into derivatives pd_m of phi, by Taylor-jet automatic
differentiation (finite differences rebuild them only in the tests).  Z_N
and every K polynomial read one factorisation of the Hankel moments pd_{j+k},
``hankel_factor`` (Colomo-Pronko, arXiv:0712.1524; Gautschi, OUP 2004, ch. 2).

Two independent inhomogeneous GEFP engines are provided: the row-reduction
recurrence, and the expansion of an N x N determinant whose first s columns
carry shift operators acting on a trailing trigonometric function of
auxiliary variables eps_1..eps_s.  Each call reads one ``site_weights``
table, so every sine is taken once, and the recurrence walks index lists of
its rows and columns.  The homogeneous GEFP is not computed
here: its one operator-determinant engine is the s x s K-polynomial form,
``gefp.gefp_determinant_jets``, which takes every K row it needs from one
``k_polynomials`` call.

Convention note, validated against the enumeration oracle: in the operator
determinant the pair factor coupling eps_j and eps_k (j < k) reads
a(eps_j, nu_k) * b(eps_k, nu_j) / e(eps_j, eps_k), with nu_j in the second
slot of b.
"""

import math
from itertools import permutations
from operator import lt

from mpmath import mp

from .algebra import Jet, UniPoly, _minors, det
from .errors import BadIndex, DivisionByZero, DuplicateRapidity, SingularHankel, TooLarge
from .oracle import YoungProfile
from .params import SiteWeights, SpectralData, a_fn, b_fn, d_fn, site_weights

DEFAULT_PERMUTATION_CAP = 7
_POLE = "a weight a or b vanishes, so its phi entry has a pole"


def phi_derivatives(lam, eta, top):
    """[d^m phi / d lambda^m for m = 0..top], phi = c / (a b), from sine-jet arithmetic."""
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    ab = Jet.sin_offset(lam + eta, top) * Jet.sin_offset(lam - eta, top)
    jet = ab.invert() * mp.sin(2 * eta)
    return [jet.derivative(m) for m in range(top + 1)]


def ik_partition(spec: SpectralData):
    """Partition function of the inhomogeneous model as a phi determinant."""
    n = spec.n
    if n == 0:
        return mp.mpf(1)
    spec.require_distinct()
    return _partition(site_weights(spec), range(n), range(n))


def _partition(w: SiteWeights, rows, cols):
    """``ik_partition`` on the lambdas ``rows`` and nus ``cols`` of a site table."""
    n = len(rows)
    ab =[[w.a[i][k] * w.b[i][k] for k in cols] for i in rows]
    num = mp.fprod(x for row in ab for x in row)
    if num == 0:
        raise DivisionByZero(_POLE)
    den = mp.fprod(w.d[rows[k]][rows[j]] * w.dnu[cols[j]][cols[k]]
                   for j in range(n) for k in range(j + 1, n))
    return num / den * det([[w.c / x for x in row] for row in ab])


def partially_inhomogeneous_partition(lambdas, eta):
    """Partition function with all nu = 0 but distinct lambdas.

    Determinant entries are lambda-derivatives of phi of increasing order,
    one column per rapidity.
    """
    lambdas = [mp.mpf(x) for x in lambdas]
    n = len(lambdas)
    if n == 0:
        return mp.mpf(1)
    for i in range(n):
        for j in range(i + 1, n):
            if lambdas[i] == lambdas[j]:
                raise DuplicateRapidity(f"coincident lambdas at {i + 1}, {j + 1}")
    eta = mp.mpf(eta)
    cols = [phi_derivatives(x, eta, n - 1) for x in lambdas]
    num = mp.mpf(1)
    for k, x in enumerate(lambdas):
        num *= (a_fn(x, 0, eta) * b_fn(x, 0, eta)) ** n
    den = mp.mpf(1)
    for m in range(n):
        den *= math.factorial(m)
    for j in range(n):
        for k in range(j + 1, n):
            den *= d_fn(lambdas[k], lambdas[j])
    matrix = [[cols[k][j] for k in range(n)] for j in range(n)]
    return num / den * det(matrix)


def hankel_factor(pd, n):
    """(P, d): the monic orthogonal polynomials P_0..P_n of the moments
    pd[0..2n] (coefficients from degree 0) and their pivots, by monic
    Gram-Schmidt under <x^a, x^b> = pd[a + b]: P_k = x^k - sum_{i<k}
    (<x^k, P_i> / d_i) P_i and d_k = <x^k, P_k> = H_k / H_{k-1}, where
    H_k = det[pd_{i+j}]_{i,j<=k} and H_{-1} = 1.  Exact on ``Fraction``, run
    alike on mpf; a zero pivot raises ``SingularHankel``."""
    polys, pivots = [], []
    for k in range(n + 1):
        p = [0] * k + [1]
        for q, d in zip(polys, pivots):
            f = sum(pd[k + m] * x for m, x in enumerate(q)) / d
            for m, x in enumerate(q):
                p[m] -= f * x
        d = sum(pd[k + m] * x for m, x in enumerate(p))
        if d == 0:
            raise SingularHankel(f"the phi-derivative Hankel minor H_{k} vanishes")
        polys.append(p)
        pivots.append(d)
    return polys, pivots


def homogeneous_partition_jets(N, lam, eta):
    """Homogeneous-limit Z_N = (ab)^(N^2) H_{N-1} / prod_{m<N} m!^2, the
    Hankel determinant H_{N-1} the product of the pivots of ``hankel_factor``."""
    if N < 0:
        raise BadIndex(f"N={N} must be at least 0")
    if N == 0:
        return mp.mpf(1)
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    pivots = hankel_factor(phi_derivatives(lam, eta, 2 * N - 2), N - 1)[1]
    fact = math.prod(math.factorial(m) for m in range(N))
    return (a_fn(lam, 0, eta) * b_fn(lam, 0, eta)) ** (N * N) * mp.fprod(pivots) / fact ** 2


def k_polynomials(pd, n):
    """[K_0, ..., K_n], K_m = m! pd_0^(m+1) P_m / d_m, from one ``hankel_factor``."""
    if n < 0:
        raise BadIndex(f"K row n={n} must be at least 0")
    polys, pivots = hankel_factor(pd, n)
    scales = [math.factorial(m) * pd[0] ** (m + 1) / d for m, d in enumerate(pivots)]
    return [UniPoly([c * x for x in p]) for c, p in zip(scales, polys)]


def k_polynomial(n, lam, eta, pd=None) -> UniPoly:
    """K_n: row n of ``k_polynomials(pd, n)``, pd the phi derivatives to
    order 2n unless given.  A vanishing H_k, k <= n, raises
    ``SingularHankel``; H_k is Z_{k+1} times a nonzero factor, so no
    physical point raises.  n < 0 raises ``BadIndex``."""
    return k_polynomials(pd or phi_derivatives(lam, eta, 2 * max(n, 0)), n)[n]


# ---------------------------------------------------------------------------
# inhomogeneous GEFP engines

def _gefp_tilde_recurrence(w: SiteWeights, rows, cols, r):
    """Unnormalized GEFP via row reduction on the lambdas ``rows`` and nus
    ``cols`` of a site table; base case is the bare Z on them."""
    if not r:
        return _partition(w, rows, cols)
    r1, nu0 = r[0], cols[0]
    pre = w.c
    for k in rows[r1:]:
        pre *= w.a[k][nu0]
    total = mp.mpf(0)
    for j in range(r1):
        lj = rows[j]
        term = mp.mpf(1)
        for k in rows[:r1]:
            if k == lj:
                continue
            dd = w.d[k][lj]
            if dd == 0:
                raise DuplicateRapidity(f"coincident lambdas at {k + 1}, {lj + 1}")
            term *= w.b[k][nu0] * w.e[k][lj] / dd
        for l in cols[1:]:
            term *= w.a[lj][l]
        term *= _gefp_tilde_recurrence(w, rows[:j] + rows[j + 1:], cols[1:],
                                       [x - 1 for x in r[1:]])
        total += term
    return pre * total


def _check_inhom(spec: SpectralData, profile: YoungProfile):
    """Refuse, before any work, N above ``DEFAULT_PERMUTATION_CAP``
    (``TooLarge``), coincident rapidities and a profile of another N."""
    if spec.n > DEFAULT_PERMUTATION_CAP:
        raise TooLarge(f"N={spec.n} exceeds the permutation cap {DEFAULT_PERMUTATION_CAP}")
    spec.require_distinct()
    if profile.N != spec.n:
        raise BadIndex(f"profile N={profile.N} does not match {spec.n} rapidities")


def gefp_inhom_recurrence(spec: SpectralData, profile: YoungProfile):
    """GEFP of the inhomogeneous model by repeated top-row reduction.  A
    step in N costs up to about 8 times the last (r = (N, ..., N) at 128
    bits: 1.1 s at N = 7 and 8.2 s at N = 8, process time, one Xeon core),
    so N is capped as in ``gefp_inhom_determinant``."""
    _check_inhom(spec, profile)
    w, ids = site_weights(spec), tuple(range(spec.n))
    return _gefp_tilde_recurrence(w, ids, ids, list(profile.r)) / _partition(w, ids, ids)


def gefp_inhom_determinant(spec: SpectralData, profile: YoungProfile):
    """GEFP as an N x N determinant with shift operators in the first s columns.

    The shift operators substitute eps_j -> lambda_(i_j); expanding over
    permutations and setting eps = 0 leaves one term per ordered tuple
    (i_0, ..., i_(s-1)) of distinct rows: the complementary minor of the phi
    columns s..N-1, times a factor f[j][i_j] per column, times the pair
    factors a(lambda_(i_j), nu_k) b(lambda_(i_k), nu_j) / e(lambda_(i_j),
    lambda_(i_k)) for j < k.  f[j][i] holds d(lambda_k, lambda_i) for
    k >= r_j, so only tuples with every i_j < r_j survive.  Every minor
    comes from one ``_minors`` pass, whose descending rows put
    (-1)^C(N-s, 2) on the Laplace sign (-1)^(inv + sum(i) + C(s, 2)).
    A vanishing a or b raises ``DivisionByZero``, and a vanishing
    e(lambda_i, lambda_k) on a pair that some tuple reads raises
    ``DuplicateRapidity``: both before the sum.
    """
    _check_inhom(spec, profile)
    n, r, s = spec.n, profile.r, len(profile.r)
    w = site_weights(spec)
    if not all(map(all, w.a + w.b)):
        raise DivisionByZero(_POLE)
    if s == 0:
        return mp.mpf(1)
    tuples = [t for t in permutations(range(r[-1]), s) if all(map(lt, t, r))]
    for t in tuples:
        for k in range(s):
            for j in range(k):
                if not w.e[t[j]][t[k]]:
                    raise DuplicateRapidity(f"resonant lambdas at {t[j] + 1}, {t[k] + 1}: "
                                            f"e(lambda_{t[j] + 1}, lambda_{t[k] + 1}) = 0")

    phim = [[w.c / (w.a[i][k] * w.b[i][k]) for k in range(n)] for i in range(n)]
    pre = 1 / det(phim)
    for j, rj in enumerate(r):
        pre *= mp.fprod(w.dnu[j][j + 1:]) / (mp.fprod(w.a[k][j] for k in range(rj))
                                             * mp.fprod(w.b[k][j] for k in range(rj, n)))
    f = [[mp.fprod(w.e[k][i] for k in range(rj)) * mp.fprod(w.d[k][i] for k in range(rj, n))
          / mp.fprod(w.b[i]) for i in range(rj)] for rj in r]

    minors = _minors([[phim[i][k] for i in range(n)] for k in range(s, n)], n - 1, mp.mpf(0))
    flip = s * (s - 1) // 2 + (n - s) * (n - s - 1) // 2
    total = mp.mpf(0)
    for t in tuples:
        minor = minors[(1 << n) - 1 - sum(1 << i for i in t)]
        if not minor:
            continue
        v, odd = minor, flip + sum(t)
        for k in range(s):
            v *= f[k][t[k]]
            for j in range(k):
                v *= w.a[t[j]][k] * w.b[t[k]][j] / w.e[t[j]][t[k]]
                odd += t[j] > t[k]
        total += -v if odd & 1 else v
    return pre * total
