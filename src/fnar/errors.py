"""Exception and warning types shared across the package, and its one size rule."""

import math

# Largest single array, in bytes, that a size argument or a table's line count
# may ask for: fixed, so that a size is refused alike on every machine and ulimit.
MAX_ARRAY_BYTES = 2**32


class FnarError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(FnarError, ValueError):
    """An argument violates a documented precondition."""


def check_array_size(message: str, *shape: int, itemsize: int = 8) -> None:
    """Raise ``InvalidArgumentError(message)`` if an array of ``shape`` and
    ``itemsize``-byte items exceeds ``MAX_ARRAY_BYTES`` (in Python ints, which never wrap)."""
    if math.prod(map(int, shape)) * itemsize > MAX_ARRAY_BYTES:
        raise InvalidArgumentError(message)


class DomainError(FnarError, ValueError):
    """An evaluation point lies outside the function's domain."""


class IllConditionedBasisError(FnarError):
    """The quadrature grid cannot resolve the requested basis."""


class NonStationaryDgpError(FnarError):
    """The simultaneous system has no stable solution (or iteration diverged)."""


class UnderidentifiedError(FnarError):
    """The instrument design is rank deficient."""


class CannotDifferenceError(FnarError):
    """First differencing requires at least two time periods."""


class MissingDataError(FnarError):
    """An observation set required for interpolation is empty."""


class VarianceUnavailableError(FnarError):
    """The sandwich covariance cannot be formed (singular Jacobian block)."""


class NumericalFailureError(FnarError):
    """An optimization or linear-algebra step produced non-finite values."""


class HarnessError(FnarError):
    """Too many replications failed inside the Monte Carlo harness."""


class SchemaError(FnarError):
    """A text-table input violates its schema.

    Carries the offending line number (1-based, header = line 1) when known.
    The message starts with ``path:line: ``, or with whichever one is known.
    """

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        where = ":".join(str(part) for part in (path, line) if part is not None)
        super().__init__(f"{where}: {message}" if where else message)


class UnderidentificationWarning(UserWarning):
    """Instruments are present but degenerate (e.g. identically zero)."""


class SmallTWarning(UserWarning):
    """Fixed-effect estimates are averages over very few periods."""
