"""Exception types shared across the library.

Every domain error derives from :class:`ColourAlgError` so callers (notably
the CLI) can map any validation failure to a single exit path.
"""

from __future__ import annotations


class ColourAlgError(Exception):
    """Base class for all domain errors raised by this package."""


class BadSpec(ColourAlgError):
    """A JSON config or spec does not have the expected shape."""


# ---------------------------------------------------------------- rings

class EvenModulus(ColourAlgError):
    """Modulus is even (2 would not be invertible) or smaller than 3."""


class BadPrime(ColourAlgError):
    """Prime-field parameter is not an odd prime."""


class NotAUnit(ColourAlgError):
    """Inversion was requested for an element that is not a unit."""


class ParseError(ColourAlgError):
    """Element text does not conform to the grammar.

    Carries the 0-based ``position`` of the offending token.
    """

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WrongRing(ColourAlgError):
    """Literal is incompatible with the target ring (e.g. 1/3 in Z/9)."""


# ---------------------------------------------------------------- trivec

class NotHermitian(ColourAlgError):
    """Gram matrix is not conjugate-symmetric."""


class Degenerate(ColourAlgError):
    """Gram matrix determinant is not a unit."""


class DeterminantNotTrivial(ColourAlgError):
    """Trivialization scalar is incompatible with the Gram determinant."""


# ---------------------------------------------------------------- algebras

class NotTraceZero(ColourAlgError):
    """Operation requires trace-zero elements."""


# ---------------------------------------------------------------- maps

class MorphismConditionFailed(ColourAlgError):
    """det(phi) does not carry the source trivialization to the target one."""


class NotCubeRoot(ColourAlgError):
    """Scalar is not a cube root of unity."""


class NotIsometry(ColourAlgError):
    """Linear map does not preserve the hermitian form."""


class NotSLinear(ColourAlgError):
    """Map data does not describe an S-linear endomorphism."""


# ---------------------------------------------------------------- graded

class BadDegrees(ColourAlgError):
    """Graded construction parameters l, m, n must be positive."""


class BaseNotField(ColourAlgError):
    """Radical analysis is only defined over a field base."""


# ---------------------------------------------------------------- checks

class SuiteNotApplicable(ColourAlgError):
    """Requested identity suite does not apply to the algebra family."""


class ExhaustiveTooLarge(ColourAlgError):
    """Exhaustive enumeration exceeds the configured element cap."""
