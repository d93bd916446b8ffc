"""References for ``ik.hankel_factor`` and its readers, by determinants.

``k_polynomial_by_minors`` is K_n in its determinant form: with
H_n = det[pd_{j+k}]_{j,k<=n} and M_j the minor of the (n+1) x n Hankel block
[pd_{r+k}] without row j,
K_n = (-1)^n n! pd_0^(n+1) / H_n sum_j (-1)^j M_j x^j, n + 2 determinants.
``hankel_det`` is H_n itself.  On ``Fraction`` moments ``det`` is exact, so
the factorisation must give these values ``==``.
"""

import math

from gefp_lab.algebra import det
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
