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
auxiliary variables eps_1..eps_s.  The homogeneous GEFP is not computed
here: its one operator-determinant engine is the s x s K-polynomial form,
``gefp.gefp_determinant_jets``, which takes every K row it needs from one
``k_polynomials`` call.

Convention note, validated against the enumeration oracle: in the operator
determinant the pair factor coupling eps_j and eps_k (j < k) reads
a(eps_j, nu_k) * b(eps_k, nu_j) / e(eps_j, eps_k), with nu_j in the second
slot of b.
"""

import math
from itertools import combinations, permutations

from mpmath import mp

from .algebra import Jet, UniPoly, det, perm_sign
from .errors import BadIndex, DivisionByZero, DuplicateRapidity, SingularHankel, TooLarge
from .oracle import YoungProfile
from .params import SpectralData

DEFAULT_PERMUTATION_CAP = 7


# trig building blocks; all float backend
def a_fn(lam, nu, eta):
    return mp.sin(lam - nu + eta)


def b_fn(lam, nu, eta):
    return mp.sin(lam - nu - eta)


def d_fn(lam, nu):
    return mp.sin(lam - nu)


def e_fn(lam, nu, eta):
    return mp.sin(lam - nu + 2 * eta)


def phi_fn(lam, nu, eta):
    return mp.sin(2 * eta) / (a_fn(lam, nu, eta) * b_fn(lam, nu, eta))


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
    lam, nu, eta = spec.lambdas, spec.nus, spec.eta
    num = mp.mpf(1)
    for j in range(n):
        for k in range(n):
            num *= a_fn(lam[j], nu[k], eta) * b_fn(lam[j], nu[k], eta)
    if num == 0:
        raise DivisionByZero("a weight a or b vanishes, so its phi entry has a pole")
    den = mp.mpf(1)
    for j in range(n):
        for k in range(j + 1, n):
            den *= d_fn(lam[k], lam[j]) * d_fn(nu[j], nu[k])
    matrix = [[phi_fn(lam[j], nu[k], eta) for k in range(n)] for j in range(n)]
    return num / den * det(matrix)


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
    if N == 0:
        return mp.mpf(1)
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    pivots = hankel_factor(phi_derivatives(lam, eta, 2 * N - 2), N - 1)[1]
    fact = math.prod(math.factorial(m) for m in range(N))
    return (a_fn(lam, 0, eta) * b_fn(lam, 0, eta)) ** (N * N) * mp.fprod(pivots) / fact ** 2


def k_polynomials(pd, n):
    """[K_0, ..., K_n], K_m = m! pd_0^(m+1) P_m / d_m, from one ``hankel_factor``."""
    polys, pivots = hankel_factor(pd, n)
    scales = [math.factorial(m) * pd[0] ** (m + 1) / d for m, d in enumerate(pivots)]
    return [UniPoly([c * x for x in p]) for c, p in zip(scales, polys)]


def k_polynomial(n, lam, eta, pd=None) -> UniPoly:
    """K_n: row n of ``k_polynomials(pd, n)``, pd the phi derivatives to
    order 2n unless given.  A vanishing H_k, k <= n, raises
    ``SingularHankel``; H_k is Z_{k+1} times a nonzero factor, so no
    physical point raises."""
    return k_polynomials(pd or phi_derivatives(lam, eta, 2 * n), n)[n]


# ---------------------------------------------------------------------------
# inhomogeneous GEFP engines

def _gefp_tilde_recurrence(spec: SpectralData, r):
    """Unnormalized GEFP via row reduction; base case is the bare Z."""
    if not r:
        return ik_partition(spec)
    lam, nu, eta = spec.lambdas, spec.nus, spec.eta
    n = spec.n
    c = mp.sin(2 * eta)
    r1 = r[0]
    pre = c
    for k in range(r1, n):
        pre *= a_fn(lam[k], nu[0], eta)
    total = mp.mpf(0)
    for j in range(r1):
        term = mp.mpf(1)
        for k in range(r1):
            if k == j:
                continue
            dd = d_fn(lam[k], lam[j])
            if dd == 0:
                raise DuplicateRapidity(f"coincident lambdas at {k + 1}, {j + 1}")
            term *= b_fn(lam[k], nu[0], eta) * e_fn(lam[k], lam[j], eta) / dd
        for l in range(1, n):
            term *= a_fn(lam[j], nu[l], eta)
        term *= _gefp_tilde_recurrence(spec.drop(j, 0), [x - 1 for x in r[1:]])
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
    return _gefp_tilde_recurrence(spec, list(profile.r)) / ik_partition(spec)


def gefp_inhom_determinant(spec: SpectralData, profile: YoungProfile):
    """GEFP as an N x N determinant with shift operators in the first s columns.

    The shift operators substitute eps_k -> eps_k + lambda_j; expanding over
    permutations and setting eps = 0 turns each term into a plain evaluation
    of the trailing trigonometric function at eps_k = lambda_(row).  The
    expansion is organized as a Laplace expansion over the last N - s
    columns, whose minors are ordinary determinants computed once per row
    subset.
    """
    _check_inhom(spec, profile)
    n = spec.n
    r = list(profile.r)
    s = len(r)
    lam, nu, eta = spec.lambdas, spec.nus, spec.eta

    phim = [[phi_fn(lam[j], nu[k], eta) for k in range(n)] for j in range(n)]
    denom = det(phim)
    pre = 1 / denom
    for j in range(s):
        num = mp.mpf(1)
        for k in range(j + 1, n):
            num *= d_fn(nu[j], nu[k])
        den = mp.mpf(1)
        for k in range(r[j]):
            den *= a_fn(lam[k], nu[j], eta)
        for k in range(r[j], n):
            den *= b_fn(lam[k], nu[j], eta)
        pre *= num / den

    def trailing(eps):
        """The eps-dependent products; eps are the substituted values."""
        v = mp.mpf(1)
        for j in range(s):
            for k in range(j + 1, s):
                v *= a_fn(eps[j], nu[k], eta) * b_fn(eps[k], nu[j], eta)
                v /= e_fn(eps[j], eps[k], eta)
        for j in range(s):
            for k in range(r[j]):
                v *= e_fn(lam[k], eps[j], eta)
            for k in range(r[j], n):
                v *= d_fn(lam[k], eps[j])
            for k in range(n):
                v /= b_fn(eps[j], nu[k], eta)
        return v

    if s == 0:
        return mp.mpf(1)

    total = mp.mpf(0)
    # Laplace sign over the first s columns; with 0-based row sums the
    # row/column 1-based offsets cancel mod 2.
    col_sign = (-1) ** (s * (s - 1) // 2)
    for rows in combinations(range(n), s):
        rest = [i for i in range(n) if i not in rows]
        minor = det([[phim[i][k] for k in range(s, n)] for i in rest])
        if minor == 0 and n > s:
            continue
        sign_rows = (-1) ** sum(rows)
        sub = mp.mpf(0)
        for p in permutations(range(s)):
            eps = [lam[rows[p[k]]] for k in range(s)]
            sub += perm_sign(list(p)) * trailing(eps)
        total += sign_rows * col_sign * minor * sub
    return pre * total
