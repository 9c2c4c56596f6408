"""Error taxonomy shared by every module.

All exceptions raised on purpose derive from SteinerTorelliError so the
command line driver can separate pipeline failures (exit 5) from schema
problems (exit 4) and missing files (exit 3).
"""


class SteinerTorelliError(Exception):
    """Base class for every deliberate failure in this package."""


# ---- exact linear algebra ----

class NonPrimeModulus(SteinerTorelliError):
    """Requested prime field modulus is composite, < 2, or >= 2**31."""


class FieldMismatch(SteinerTorelliError):
    """Matrices or scalars over different fields were combined."""


class ShapeMismatch(SteinerTorelliError):
    """Matrix dimensions do not line up for the requested operation."""


class BadPrime(SteinerTorelliError):
    """Rational data cannot be reduced mod p (denominator divisible by p),
    or reduction mod p degenerates the scene data."""


# ---- scene construction ----

class SchemaError(SteinerTorelliError):
    """Scene description file is syntactically valid JSON but violates the
    documented schema."""


class DuplicatePoints(SteinerTorelliError):
    """A point set contains two projectively equal points."""


class ZeroPoint(SteinerTorelliError):
    """A point set contains the zero vector."""


class DependentBasis(SteinerTorelliError):
    """A supplied basis is linearly dependent (or lists a monomial twice)."""


class BasepointedSeries(SteinerTorelliError):
    """A linear series that must be basepoint-free has a common zero."""


class ZeroSection(SteinerTorelliError):
    """The section cutting out a divisor is identically zero."""


class BadClass(SteinerTorelliError):
    """Divisor class parameters are out of the supported range."""


class UnsupportedLabel(SteinerTorelliError):
    """The scene cannot realize a section space for this bundle label."""


class UnsupportedScene(SteinerTorelliError):
    """The requested operation is undefined for this scene kind."""


class ZeroEvaluation(SteinerTorelliError):
    """Every section of the series vanishes at an enumerated point."""


# ---- presentations and pipelines ----

class NonUniqueQuotient(SteinerTorelliError):
    """Expected a one dimensional trivial quotient; cokernel dimension != 1."""


class ClassMismatch(SteinerTorelliError):
    """Two scenes expected to share discrete invariants do not."""


class NotGeneralPosition(SteinerTorelliError):
    """A point set fails linear general position where it is required."""


class WindowTooSmall(SteinerTorelliError):
    """A graded window does not cover the degrees needed by the request."""


class ZeroScale(SteinerTorelliError):
    """A rescaling vector contains a zero entry."""


class UsageError(SteinerTorelliError):
    """Command line arguments are structurally invalid."""
