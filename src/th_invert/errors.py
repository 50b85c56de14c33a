"""Exception types raised by the analysis engine."""


class THInvertError(Exception):
    """Base class for all errors raised by this package."""


class DivisionBySmallModulus(THInvertError):
    """An inverted symbol has modulus below the invertibility tolerance."""


class QuadratureNotConverged(THInvertError):
    """Adaptive quadrature could not reach the requested error bound."""


class PreconditionViolation(THInvertError):
    """An operation was called on inputs outside its contract."""


class NotInvertible(THInvertError):
    """A generating function fails the minimum-modulus check on the grid."""


class DegenerateArc(THInvertError):
    """Arc endpoints coincide."""


class CurveThroughOrigin(THInvertError):
    """A symbol curve passes through the origin; winding is undefined."""


class NonIntegerWinding(THInvertError):
    """Accumulated argument is not close to an integer multiple of 2*pi."""


class OutOfDomain(THInvertError):
    """Requested point lies outside the operation's domain."""


class InconsistentRecord(THInvertError):
    """An operator record breaks ind = dim ker - dim coker."""


class NoSpectralGap(THInvertError):
    """Singular values near the threshold are not separated well enough."""


class NotFredholm(THInvertError):
    """Operator is not Fredholm at the requested exponent."""


class NotFredholmAtP(NotFredholm):
    """Probing precondition failed: not Fredholm at the base exponent."""


class NoFredholmNeighborhood(THInvertError):
    """T(a) is not Fredholm between p and its next critical exponent above p."""


class SeriesDiverges(THInvertError):
    """Series parameter lies outside the convergence range."""


class NotPolynomial(THInvertError):
    """Symbol is not band-limited (not a finite Laurent polynomial)."""


class ConfigError(THInvertError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Config text is not well-formed."""


class ValidationError(ConfigError):
    """Config is well-formed but violates a constraint."""
