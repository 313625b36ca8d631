"""Exception hierarchy shared by all bicoh modules."""


class BicohError(Exception):
    """Base class for all errors raised by this package."""


class ComposeError(BicohError):
    """Two maps were fed to a homology computation but do not compose to zero."""


class ZeroPolynomialError(BicohError):
    """The zero polynomial has no bidegree."""


class NotBihomogeneousError(BicohError):
    """A polynomial or module element mixes several bidegrees."""


class RingMismatchError(BicohError, ValueError):
    """Operands live over different rings or free modules."""


class ParseError(BicohError):
    """Malformed polynomial text.  Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """A variable name outside x1..xm / y1..yn."""


class ZeroModuleError(BicohError):
    """The zero module has no profile."""


class NotCohenMacaulayError(BicohError):
    """A check that assumes a Cohen-Macaulay module got a non-CM one."""


class NotGeneralizedCMError(BicohError):
    """Suite requires a strictly generalized Cohen-Macaulay module."""


class BadRingError(BicohError, ValueError):
    """Invalid ring: no variables, too many, or a modulus that is not a
    supported prime."""


class CoordinateCountError(BicohError, ValueError):
    """A module element without one coordinate per generator."""


class ZeroElementError(BicohError, ValueError):
    """The zero module element has no lead term."""


class NoGeneratorsError(BicohError, ValueError):
    """A Groebner basis asked of no generators in no ambient module."""


class DegreeBoundError(BicohError, ValueError):
    """A degree bound that leaves no positive bidegree."""


class BadTheoryError(BicohError):
    """Cohomology theory not defined for this ring or operation."""


class UnsupportedIndexError(BicohError):
    """Tameness scan asked at an index the corner reductions do not cover."""


class BadModuleError(BicohError):
    """Module violates a suite precondition on the ring (e.g. dim R_0 <= 1)."""


class BadProfileError(BicohError):
    """Module's (depth, dim) profile does not match the suite's hypothesis."""


class FormatError(BicohError):
    """Malformed module input file."""


class DegreeMismatchError(BicohError):
    """A matrix entry is not bihomogeneous of the bidegree forced by the shifts."""


class InvariantError(BicohError):
    """An internal invariant broke (a fault in bicoh, not in the input)."""


class DegreeOverflowError(BicohError):
    """A monomial reaches total degree 2^31, beyond its packed fields."""
