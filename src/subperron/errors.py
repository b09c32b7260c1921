"""Exception types shared across the package.

A class's ``exit_code`` is the command line's exit code for it: 2 for input
that does not parse, 3 for a violated hypothesis (input not expanding, or
not in the required Frobenius form), 4 for an exceeded iteration or
resource budget or a value beyond float range, and 1 for any other error.
"""


class SubperronError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class ParseError(SubperronError):
    """Input file or text does not conform to the expected format."""
    exit_code = 2


class NotExpandingError(SubperronError):
    """The matrix or substitution is not expanding."""
    exit_code = 3


class NotPBFrobeniusError(SubperronError):
    """The matrix is not in PB-Frobenius form (some diagonal block is an
    imprimitive irreducible block; raise the matrix to a suitable power)."""
    exit_code = 3


class NotPrincipalError(SubperronError):
    """The requested block is not a principal block."""


class ZeroColumnError(SubperronError):
    """The matrix has a zero column, which the operation does not allow."""
    exit_code = 3


class SingularSystemError(SubperronError):
    """A linear system that should be regular turned out singular; this
    signals a misclassification upstream (eigenvalue not dominant)."""


class MaxIterError(SubperronError):
    """An iteration exceeded its budget.  When raised by a frequency
    computation, ``partial`` may carry the best result obtained so far."""
    exit_code = 4

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ImageOverflowError(SubperronError):
    """A substitution power produced an image longer than the safety bound."""
    exit_code = 4


class FloatRangeError(SubperronError):
    """An exact value needed as a float lies beyond the float range."""
    exit_code = 4
