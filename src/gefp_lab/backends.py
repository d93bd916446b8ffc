"""Scalar backends.

Two backends are supported everywhere:

* ``exact``: ``fractions.Fraction`` with arbitrary-size integers.  Used for
  all workflows that are rational in the anisotropy parameters, so results
  can be compared with literal ``==``.
* ``float``: ``mpmath`` arbitrary-precision binary floats.  The working
  precision is the ambient ``mpmath.mp.prec``; the CLI sets it from
  ``--precision`` or the ``GEFP_LAB_PRECISION`` environment variable
  (default 128 bits).  ``to_exact`` reads a finite float as the dyadic
  ``Fraction`` it holds, so an engine can run exactly on float inputs and
  round once with ``to_float``; nan and infinities are refused.

Rationals serialize as ``"numerator/denominator"`` strings, floats as
decimal strings together with an explicit precision field.
"""

import os
from fractions import Fraction

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest, to_rational

from .errors import Unsupported

EXACT = "exact"
FLOAT = "float"

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 8
PRECISION_ENV_VAR = "GEFP_LAB_PRECISION"


def default_precision_bits():
    """Default float precision, honoring the environment override."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV_VAR} must be an integer number of bits, "
                         f"got {raw!r}")
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"{PRECISION_ENV_VAR} must be at least {MIN_PRECISION_BITS} "
                         f"bits, got {bits}")
    return bits


def is_exact_scalar(x) -> bool:
    return isinstance(x, (Fraction, int))


def parse_exact(text: str) -> Fraction:
    """Parse "p/q" or integer strings; decimals belong to the float backend."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise Unsupported(f"decimal literal {text!r} is parsed into the float backend only")
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_float(text: str):
    """A finite mpf at the working precision; nan and infinities raise ValueError."""
    x = mp.mpf(text.strip())
    if not mp.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def to_float(x):
    """x as an mpf at the working precision; a rational is rounded once."""
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec,
                                         round_nearest))
    return mp.mpf(x)


def to_exact(x) -> Fraction:
    """The rational x holds, an mpf read as its dyadic value and a
    ``Fraction`` returned as it is; nan and infinities raise ``Unsupported``."""
    if is_exact_scalar(x):
        return x if isinstance(x, Fraction) else Fraction(x)
    if not mp.isfinite(x):
        raise Unsupported(f"{x} is not a finite number")
    return Fraction(*to_rational(x._mpf_)) if isinstance(x, mpf) else Fraction(x)


def format_exact(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def float_digits() -> int:
    """Decimal digits that faithfully represent the current binary precision."""
    return mp.dps + 3


def format_float(x) -> str:
    return mpmath.nstr(x, float_digits(), strip_zeros=False)


def format_scalar(x) -> str:
    if is_exact_scalar(x):
        return format_exact(Fraction(x))
    return format_float(x)
