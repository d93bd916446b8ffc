"""The jets contraction summed term by term, the reference for the engine.

``JetsWorkspace.contraction`` contracts one axis at a time and keeps the
partial tensors of every profile suffix.  ``exact_contraction`` sums
sgn(p) P[i] prod_k v[k][p(k)][i_k] over every permutation p and every index
i instead, in integers, from the workspace's own ``pair``, ``weights`` and
``powers``, with no memo: the engine must give this sum, rounded once.
"""

from fractions import Fraction
from itertools import permutations, product

from gefp_lab.algebra import perm_sign


def exact_contraction(ws, r):
    """The contraction of the jets workspace ``ws`` at the profile r, as the
    exact dyadic ``Fraction``."""
    N, s = ws.N, ws.s
    folds = [[[sum(ws.powers[N - rk][d] * w[m + d] for d in range(N - m))
               for m in range(N)] for w in ws.weights] for rk in r]
    total = 0
    for p in permutations(range(s)):
        for i in product(range(N), repeat=s):
            term = perm_sign(p) * ws.pair.coeff(i)
            for k in range(s):
                term *= folds[k][p[k]][i[k]]
            total += term
    return Fraction(total) * Fraction(2) ** ws.exponent
