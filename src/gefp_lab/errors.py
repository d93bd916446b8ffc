"""Exception hierarchy.

Every computation error raised by this package derives from GefpLabError so
the CLI can map it to a single exit code while reporting the concrete class
name.
"""


class GefpLabError(Exception):
    """Base class for all errors raised by gefp_lab."""


class DivisionByZero(GefpLabError):
    """A required weight or pivot is exactly zero."""


class NonphysicalWeights(GefpLabError):
    """Weights violate positivity and allow_nonphysical was not set."""


class DuplicateRapidity(GefpLabError):
    """Coincident (or resonant) spectral parameters make a formula 0/0."""


class TooLarge(GefpLabError):
    """Requested size exceeds the configured cap for this engine."""


class BadIndex(GefpLabError):
    """An index or profile argument is out of its admissible range."""


class NotInvertible(GefpLabError):
    """Series inversion requested with vanishing constant term."""


class SingularHankel(GefpLabError):
    """A leading phi-derivative Hankel minor vanished, so some Z_k = 0."""


class Unsupported(GefpLabError):
    """Operation is not defined for this backend or input combination."""


class BranchPole(GefpLabError):
    """Argument sits on the branch point of the rapidity inversion."""
