"""Weight parametrizations of the six-vertex model and conversions between them.

Three equivalent descriptions are used throughout:

* ``VertexWeights``: the Boltzmann weights (a, b, c) of the three vertex
  pairs.  In the exact backend c enters only through c^2; probabilities are
  ratios in which the leftover odd power of c cancels, because every
  configuration on the N x N domain-wall lattice carries exactly
  n5 = n6 + N c-vertices.
* (Delta, t), a plain pair, with Delta = (a^2 + b^2 - c^2) / (2ab) and
  t = b / a.  Correlation functions are rational in these.
* ``SpectralData``: trigonometric rapidities (lambda_j, nu_k) and crossing
  parameter eta with a = sin(lambda - nu + eta), b = sin(lambda - nu - eta),
  c = sin(2 eta), so that Delta = cos(2 eta) at every site.

All conversions between parametrizations live here so the engines cannot
drift apart on conventions.  So do the trig building blocks ``a_fn`` ..
``phi_fn`` and ``site_weights``, the table of every site weight that an
inhomogeneous engine builds once per call.
"""

import math
from fractions import Fraction

from mpmath import mp

from .backends import EXACT, FLOAT, is_exact_scalar, to_float
from .errors import DivisionByZero, DuplicateRapidity, NonphysicalWeights, Unsupported


def exact_sqrt(x: Fraction):
    """Square root of a Fraction if it is a perfect square, else None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class Frozen:
    """An immutable value over its ``__slots__``, set in order by
    ``Frozen.__init__``: equal by type and fields, hashed by its fields,
    shown as ``Name(field=value, ...)``, and ``AttributeError`` on assignment.
    A copy or a pickle rebuilds it through its own ``__init__``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class VertexWeights(Frozen):
    """Boltzmann weights of the six vertex types (a, a, b, b, c, c).

    ``c`` may be None in the exact backend when only c^2 is rational; all
    probability computations work through ``c2``.
    """

    __slots__ = ("a", "b", "c2", "c", "allow_nonphysical")

    def __init__(self, a, b, c2, c=None, allow_nonphysical=False):
        super().__init__(a, b, c2, c, allow_nonphysical)
        if self.a == 0 or self.b == 0:
            raise DivisionByZero("vertex weights a and b must be nonzero")
        if self.c2 == 0:
            raise NonphysicalWeights("weight c must be nonzero")
        if not (self.allow_nonphysical or self.physical):
            raise self.refusal()

    @property
    def physical(self):
        """a, b, c^2 and c, where given, are all positive."""
        return self.a > 0 and self.b > 0 and self.c2 > 0 and (self.c is None or self.c > 0)

    def refusal(self):
        """The ``NonphysicalWeights`` of physical mode, showing these weights."""
        if self.a > 0 and self.b > 0 and self.c2 > 0 and self.c is not None and not self.c > 0:
            return NonphysicalWeights(f"weight c={self.c} must be positive")
        return NonphysicalWeights(f"weights must be positive in physical mode: "
                                  f"a={self.a}, b={self.b}, c^2={self.c2}")

    @classmethod
    def from_abc(cls, a, b, c, allow_nonphysical=False):
        return cls(a, b, c * c, c, allow_nonphysical)

    @classmethod
    def from_delta_t(cls, delta, t, allow_nonphysical=False):
        """Unit-a weights realizing a given (Delta, t) point.

        a = 1, b = t, c^2 = 1 + t^2 - 2*t*Delta.  In the exact backend c is
        filled in whenever c^2 is a perfect square.
        """
        if is_exact_scalar(delta) and is_exact_scalar(t):
            delta, t, one, root = Fraction(delta), Fraction(t), Fraction(1), exact_sqrt
        else:
            delta, t, one, root = mp.mpf(delta), mp.mpf(t), mp.mpf(1), mp.sqrt
        c2 = one + t * t - 2 * t * delta
        return cls(one, t, c2, root(c2) if c2 > 0 else None, allow_nonphysical)

    @property
    def backend(self):
        return EXACT if is_exact_scalar(self.a) else FLOAT


class SpectralData(Frozen):
    """Rapidities and crossing parameter of the inhomogeneous model.

    lambdas[k] is attached to the (k+1)-th lattice column counting from the
    right, nus[j] to the (j+1)-th row counting from the top; the weight of
    the vertex in row j, column k is a(lambda_k, nu_j) etc.
    """

    __slots__ = ("lambdas", "nus", "eta")

    def __init__(self, lambdas, nus, eta):
        super().__init__(tuple(mp.mpf(x) for x in lambdas), tuple(mp.mpf(x) for x in nus),
                         mp.mpf(eta))
        if len(self.lambdas) != len(self.nus):
            raise ValueError("lambdas and nus must have equal length")

    @property
    def n(self):
        return len(self.lambdas)

    def require_distinct(self):
        for name, vals in (("lambda", self.lambdas), ("nu", self.nus)):
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if vals[i] == vals[j]:
                        raise DuplicateRapidity(
                            f"coincident {name} rapidities at positions {i + 1}, {j + 1}")


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


class SiteWeights(Frozen):
    """Every trig site weight of a ``SpectralData``, each sine taken once:
    a[i][k] and b[i][k] at (lambda_i, nu_k), d[i][k] and e[i][k] at
    (lambda_i, lambda_k), dnu[j][k] = d(nu_j, nu_k), and c = sin(2 eta).
    It holds values at one working precision, so engines build it per call."""

    __slots__ = ("a", "b", "d", "e", "dnu", "c")


def site_weights(spec: SpectralData) -> SiteWeights:
    """The 5 N^2 + 1 sines of ``SiteWeights`` at the working precision."""
    lam, nu, eta = spec.lambdas, spec.nus, spec.eta

    def table(f, xs, ys, *args):
        return tuple(tuple(f(x, y, *args) for y in ys) for x in xs)

    return SiteWeights(table(a_fn, lam, nu, eta), table(b_fn, lam, nu, eta),
                       table(d_fn, lam, lam), table(e_fn, lam, lam, eta),
                       table(d_fn, nu, nu), mp.sin(2 * eta))


# ---------------------------------------------------------------------------
# conversions

def weights_from_trig(lam, nu, eta, allow_nonphysical=False) -> VertexWeights:
    """Weights a = sin(lam - nu + eta), b = sin(lam - nu - eta), c = sin(2 eta).

    Float backend only; the exact backend has no trigonometry.
    """
    if is_exact_scalar(lam) and not isinstance(lam, int):
        raise Unsupported("trigonometric weights require the float backend")
    lam, nu, eta = mp.mpf(lam), mp.mpf(nu), mp.mpf(eta)
    return VertexWeights.from_abc(a_fn(lam, nu, eta), b_fn(lam, nu, eta), mp.sin(2 * eta),
                                  allow_nonphysical)


def delta_t_from_trig(lam, eta):
    """(Delta, t) of the homogeneous point (lambda, eta); needs sin(lambda + eta) != 0."""
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    a = mp.sin(lam + eta)
    if a == 0:
        raise DivisionByZero(f"a = sin(lambda + eta) vanishes at lambda={lam}, eta={eta}")
    return mp.cos(2 * eta), mp.sin(lam - eta) / a


def lambda_eta_from_delta_t(delta, t):
    """Invert (Delta, t) to a homogeneous trig point (lambda, eta).

    Requires |Delta| < 1 (the trigonometric regime); lambda is chosen in
    (0, pi) so the weights come out positive for physical inputs.  A
    rational input is rounded once to the working precision.
    """
    delta, t = to_float(delta), to_float(t)
    if not abs(delta) < 1:
        raise Unsupported(f"trig parametrization needs |Delta| < 1, got {delta}")
    eta = mp.acos(delta) / 2
    if t == 1:
        lam = mp.pi / 2
    else:
        lam = mp.atan(mp.tan(eta) * (1 + t) / (1 - t))
        if lam <= 0:
            lam += mp.pi
    return lam, eta
