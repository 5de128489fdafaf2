"""Exception types raised by this package.

Every error raised from library code derives from :class:`AimeError`, so
callers (the CLI in particular) can catch one base class. Numerical
failures get their own branch because the CLI maps them to a distinct
exit code.
"""


class AimeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AimeError, ValueError):
    """Operands have incompatible dimensions."""


class DomainError(AimeError, ValueError):
    """A parameter is outside its allowed range."""


class DataError(AimeError, ValueError):
    """Input data is unusable (non-finite values, wrong structure)."""


class ColumnError(DataError):
    """Column ``column`` (0-based) of the matrix named ``matrix`` is unusable."""

    def __init__(self, matrix: str, column: int, reason: str):
        super().__init__(f"{matrix} column {column}: {reason}")
        self.matrix, self.column, self.reason = matrix, column, reason


class InsufficientDataError(AimeError, ValueError):
    """Too few samples for the requested statistic."""


class ColumnIndexError(AimeError, IndexError):
    """A column index is out of range."""


class AlignmentError(AimeError, ValueError):
    """Paired matrices cannot be aligned on sample identifiers."""


class ValidationError(AimeError, ValueError):
    """Labeled data violates a structural invariant (e.g. duplicate ids)."""


class ParseError(AimeError, ValueError):
    """A delimited text file could not be parsed."""


class CacheError(AimeError, RuntimeError):
    """A forward cache does not match the network it is used with."""


class NumericalError(AimeError, ArithmeticError):
    """Base class for numerical failures (maps to CLI exit code 3)."""


class DefinitenessError(NumericalError):
    """A matrix required to be positive definite is not."""
