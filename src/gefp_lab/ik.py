"""Determinant engines for the partition function and the inhomogeneous GEFP.

The partition function of the fully inhomogeneous model is an N x N
determinant of phi(lambda, nu) = c / (a(lambda, nu) b(lambda, nu)) dressed
with weight products and Vandermonde-type denominators.  Its homogeneous
limit turns determinant entries into derivatives of phi, which are computed
here by Taylor-jet automatic differentiation (never by finite differences in
production; a finite-difference rebuild exists only as a test oracle).

Two independent inhomogeneous GEFP engines are provided: the row-reduction
recurrence, and the expansion of an N x N determinant whose first s columns
carry shift operators acting on a trailing trigonometric function of
auxiliary variables eps_1..eps_s.  The homogeneous GEFP is not computed
here: its one operator-determinant engine is the s x s K-polynomial form,
``gefp.gefp_determinant_jets``, which takes ``k_polynomial`` from this
module.

Convention note, validated against the enumeration oracle: in the operator
determinant the pair factor coupling eps_j and eps_k (j < k) reads
a(eps_j, nu_k) * b(eps_k, nu_j) / e(eps_j, eps_k), with nu_j in the second
slot of b.
"""

import math
from itertools import combinations, permutations

from mpmath import mp

from .algebra import Jet, UniPoly, det, perm_sign
from .errors import DivisionByZero, DuplicateRapidity, SingularHankel, TooLarge
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


class PhiJet:
    """Taylor expansion of phi(lambda) = c / (a(lambda) b(lambda)) at a base point.

    Derivatives up to the jet order come out of exact series arithmetic on
    sine jets, so they are accurate to working precision.
    """

    def __init__(self, lam, eta, order):
        self.lam = mp.mpf(lam)
        self.eta = mp.mpf(eta)
        self.order = order
        c = mp.sin(2 * self.eta)
        ja = Jet.sin_offset(self.lam + self.eta, order)
        jb = Jet.sin_offset(self.lam - self.eta, order)
        self.jet = (ja * jb).invert() * c

    def derivative(self, m):
        """d^m phi / d lambda^m at the base point."""
        return self.jet.derivative(m)

    def derivatives(self, top):
        if top > self.order:
            raise ValueError(f"jet order {self.order} too small for derivative {top}")
        return [self.derivative(m) for m in range(top + 1)]


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
    jets = [PhiJet(x, eta, n - 1) for x in lambdas]
    num = mp.mpf(1)
    for k, x in enumerate(lambdas):
        num *= (a_fn(x, 0, eta) * b_fn(x, 0, eta)) ** n
    den = mp.mpf(1)
    for m in range(n):
        den *= math.factorial(m)
    for j in range(n):
        for k in range(j + 1, n):
            den *= d_fn(lambdas[k], lambdas[j])
    matrix = [[jets[k].derivative(j) for k in range(n)] for j in range(n)]
    return num / den * det(matrix)


def homogeneous_partition_jets(N, lam, eta):
    """Homogeneous-limit partition function from the phi-derivative Hankel matrix."""
    if N == 0:
        return mp.mpf(1)
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    phi = PhiJet(lam, eta, 2 * N - 2)
    pd = phi.derivatives(2 * N - 2)
    matrix = [[pd[j + k] for k in range(N)] for j in range(N)]
    ab = a_fn(lam, 0, eta) * b_fn(lam, 0, eta)
    fact = mp.mpf(1)
    for m in range(N):
        fact *= math.factorial(m)
    return ab ** (N * N) * det(matrix) / (fact * fact)


def k_polynomial(n, lam, eta, phi: PhiJet = None) -> UniPoly:
    """The degree-n polynomial built from two phi-derivative determinants.

    K_0 = 1; K_n(x) has a nonzero leading coefficient whenever the Hankel
    determinant of phi-derivatives is nonzero.
    """
    if phi is None:
        phi = PhiJet(lam, eta, 2 * n)
    pd = phi.derivatives(2 * n)
    den = det([[pd[j + k] for k in range(n + 1)] for j in range(n + 1)])
    if den == 0:
        raise SingularHankel(f"phi-derivative determinant vanished at order {n}")
    coeffs = []
    for j in range(n + 1):
        rows = [r for r in range(n + 1) if r != j]
        minor = det([[pd[r + k] for k in range(n)] for r in rows])
        coeffs.append((-1) ** j * minor)
    scale = (-1) ** n * math.factorial(n) * pd[0] ** (n + 1) / den
    return UniPoly([scale * c for c in coeffs])


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


def gefp_inhom_recurrence(spec: SpectralData, profile: YoungProfile):
    """GEFP of the inhomogeneous model by repeated top-row reduction."""
    spec.require_distinct()
    if profile.N != spec.n:
        raise ValueError(f"profile N={profile.N} does not match {spec.n} rapidities")
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
    n = spec.n
    if n > DEFAULT_PERMUTATION_CAP:
        raise TooLarge(f"N={n} exceeds the permutation cap {DEFAULT_PERMUTATION_CAP}")
    spec.require_distinct()
    if profile.N != n:
        raise ValueError(f"profile N={profile.N} does not match {spec.n} rapidities")
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
