"""Exception types shared across the package."""


class SubperronError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SubperronError):
    """Input file or text does not conform to the expected format."""


class NotExpandingError(SubperronError):
    """The matrix or substitution is not expanding."""


class NotPBFrobeniusError(SubperronError):
    """The matrix is not in PB-Frobenius form (some diagonal block is an
    imprimitive irreducible block; raise the matrix to a suitable power)."""


class NotPrincipalError(SubperronError):
    """The requested block is not a principal block."""


class ZeroColumnError(SubperronError):
    """The matrix has a zero column, which the operation does not allow."""


class SingularSystemError(SubperronError):
    """A linear system that should be regular turned out singular; this
    signals a misclassification upstream (eigenvalue not dominant)."""


class MaxIterError(SubperronError):
    """An iteration exceeded its budget.  When raised by a frequency
    computation, ``partial`` may carry the best result obtained so far."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ImageOverflowError(SubperronError):
    """A substitution power produced an image longer than the safety bound."""


class FloatRangeError(SubperronError):
    """An exact value needed as a float lies beyond the float range."""
