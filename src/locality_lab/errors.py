"""Exception types shared across the package.

Every error raised on a bad input or an exceeded resource cap derives from
LocalityLabError, so callers can catch one type at the CLI boundary.  The
few classes documented as "bug signal" indicate a broken internal invariant
rather than bad user input; they still derive from the same base so a
harness can report them uniformly.
"""


class LocalityLabError(Exception):
    """Base class for all package errors."""


class CapExceeded(LocalityLabError):
    """A computation was refused because it exceeds a configured cap."""


# field arithmetic

class NotPrime(LocalityLabError):
    pass


class FieldTooLarge(CapExceeded):
    pass


class DivisionByZero(LocalityLabError, ZeroDivisionError):
    pass


class FieldMismatch(LocalityLabError):
    pass


class GcdNotOne(LocalityLabError):
    pass


class NotRootOfUnity(LocalityLabError):
    pass


class CoefficientNotInBase(LocalityLabError):
    """Bug signal: a minimal-polynomial coefficient escaped the base field."""


class FieldInvariantBroken(LocalityLabError):
    """Bug signal: a field, field map or polynomial broke a guaranteed
    invariant."""


class DivisionByZeroPolynomial(LocalityLabError, ZeroDivisionError):
    pass


# linear-code core

class RaggedRows(LocalityLabError):
    pass


class BadCoordinate(LocalityLabError):
    pass


class EnumerationTooLarge(CapExceeded):
    pass


class InconsistentInput(LocalityLabError):
    pass


class UnusablePath(LocalityLabError):
    """A matrix file could not be opened, read or written."""


class NonIntegerOutput(LocalityLabError):
    """Bug signal: a transform produced a non-integral count."""


class ZeroCode(LocalityLabError):
    pass


class SearchTooLarge(CapExceeded):
    pass


# constructions

class NotADivisor(LocalityLabError):
    pass


class NotAnOvoid(LocalityLabError):
    pass


class WrongFieldForm(LocalityLabError):
    pass


class NotMaximalArc(LocalityLabError):
    pass


class BadParameters(LocalityLabError):
    pass


class FamilyUnavailableForParameters(LocalityLabError):
    pass


class HypothesisViolated(LocalityLabError):
    pass


class ConstructionInvariantBroken(LocalityLabError):
    """Bug signal: a constructor's self-check failed."""


# locality and bounds

class TrivialCode(LocalityLabError):
    pass


class BadLocality(LocalityLabError):
    pass


class DichotomyViolated(LocalityLabError):
    """Bug signal: a near-MDS code produced a locality outside the two allowed values."""


class PairingFailed(LocalityLabError):
    """Bug signal: minimum-weight supports of a near-MDS pair failed to match up."""


class NotARepairSet(LocalityLabError):
    pass


class DesignInvariantBroken(LocalityLabError):
    """Bug signal: a verified t-design failed an identity that every
    t-design satisfies (it is a t'-design for t' < t, and b C(w,t) =
    lambda C(n,t))."""


class LocalityInvariantBroken(LocalityLabError):
    """Bug signal: a locality computation or the code core beneath it broke
    a guaranteed invariant (a searched word outside the dual, a nontrivial
    dual that leaves a coordinate uncovered, a cyclic code with locality
    other than d(dual) - 1, repair coefficients that fail on a basis
    vector, an enumeration that miscounts)."""


# command line

class UnknownFamily(LocalityLabError):
    pass

