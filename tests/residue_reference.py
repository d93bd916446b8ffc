"""The unscaled residue expansion in z, the reference for the integer engine.

``gefp_residue`` runs on integer series in w = z / B.  ``_z_series`` builds
the same integrand in z itself, on the scalars of (delta, t), from the same
kernels with B = 1: on ``Fraction`` it gives the same values by a route
with no scaling, which the tests compare against.
"""

from gefp_lab.gefp import IntegrandSeries, _prefactor_series
from gefp_lab.hfun import build_h_tables, h_polynomial


def _z_series(N, s, delta, t):
    """The expansion in z on the scalars of (delta, t)."""
    h = h_polynomial(build_h_tables(N, s, delta, t), N, s)
    a, b = 2 * delta * t, t * t
    return IntegrandSeries(s, _prefactor_series(N, s, 1, b - a, a, b, h.zero), h, (1, 1))
