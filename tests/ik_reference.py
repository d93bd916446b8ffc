"""References for ``ik.hankel_factor`` and its readers, by determinants.

``k_polynomial_by_minors`` is K_n in its determinant form: with
H_n = det[pd_{j+k}]_{j,k<=n} and M_j the minor of the (n+1) x n Hankel block
[pd_{r+k}] without row j,
K_n = (-1)^n n! pd_0^(n+1) / H_n sum_j (-1)^j M_j x^j, n + 2 determinants.
``hankel_det`` is H_n itself.  On ``Fraction`` moments ``det`` is exact, so
the factorisation must give these values ``==``.

``operator_determinant_by_permutations`` is the inhomogeneous GEFP as the
N x N operator determinant summed over all N! permutations, each trailing
sine taken where it is read: no Laplace split and no site table.
"""

import math
from itertools import permutations

from mpmath import mp

from gefp_lab.algebra import det, perm_sign
from gefp_lab.errors import SingularHankel


def hankel_det(pd, n):
    """H_n = det[pd_{j+k}] for j, k <= n."""
    return det([[pd[j + k] for k in range(n + 1)] for j in range(n + 1)])


def k_polynomial_by_minors(n, pd):
    """The coefficients of K_n, degree 0 first, from n + 2 determinants."""
    den = hankel_det(pd, n)
    if den == 0:
        raise SingularHankel(f"phi-derivative determinant vanished at order {n}")
    coeffs = []
    for j in range(n + 1):
        rows = [r for r in range(n + 1) if r != j]
        coeffs.append((-1) ** j * det([[pd[r + k] for k in range(n)] for r in rows]))
    scale = (-1) ** n * math.factorial(n) * pd[0] ** (n + 1) / den
    return [scale * c for c in coeffs]


def _leibniz(m):
    """det m as the sum over permutations p of sgn(p) prod_k m[p[k]][k]."""
    return mp.fsum(perm_sign(p) * mp.fprod(m[p[k]][k] for k in range(len(m)))
                   for p in permutations(range(len(m))))


def operator_determinant_by_permutations(spec, r):
    """The inhomogeneous GEFP at profile r: column k < s of the N x N
    determinant shifts eps_k to lambda of its row, column k >= s holds
    phi(lambda_row, nu_k), and each permutation's shifted trailing function
    is evaluated on its own.  Both determinants are Leibniz sums."""
    lam, nu, eta = spec.lambdas, spec.nus, spec.eta
    n, s = spec.n, len(r)

    def sin(x, y, shift):
        return mp.sin(x - y + shift)

    phi = [[mp.sin(2 * eta) / (sin(x, y, eta) * sin(x, y, -eta)) for y in nu] for x in lam]

    def trailing(eps):
        v = mp.mpf(1)
        for j in range(s):
            for k in range(n):
                v *= sin(lam[k], eps[j], 2 * eta) if k < r[j] else sin(lam[k], eps[j], 0)
                if not v:               # eps_j = lambda_k for some k >= r_j
                    return v
                v /= sin(eps[j], nu[k], -eta)
            for k in range(j + 1, s):
                v *= sin(eps[j], nu[k], eta) * sin(eps[k], nu[j], -eta) / sin(eps[j], eps[k], 2 * eta)
        return v

    pre = 1 / _leibniz(phi)
    for j in range(s):
        for k in range(n):
            pre /= sin(lam[k], nu[j], eta) if k < r[j] else sin(lam[k], nu[j], -eta)
            if k > j:
                pre *= sin(nu[j], nu[k], 0)
    total = mp.mpf(0)
    for p in permutations(range(n)):
        term = trailing([lam[p[k]] for k in range(s)])
        for k in range(s, n):
            term *= phi[p[k]][k]
        total += perm_sign(p) * term
    return pre * total
