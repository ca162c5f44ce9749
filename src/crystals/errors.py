"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`CrystalError`, so callers
can catch one type at the CLI boundary.  Validation errors carry the offending
coordinates or values in their message.
"""

from __future__ import annotations


class CrystalError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CrystalError):
    """Cell data does not match the declared shape."""


class RowViolation(CrystalError):
    """Entries along a row break the required ordering."""


class ColumnViolation(CrystalError):
    """Entries along a column break the required ordering."""


class DiagonalMarkViolation(CrystalError):
    """A marked entry sits on the main diagonal of a shifted tableau."""


class DuplicateMarkInRow(CrystalError):
    """A row of a shifted tableau holds the same marked value twice."""


class ValueOutOfRange(CrystalError):
    """An entry value lies outside the allowed alphabet 1..n."""


class IndexOutOfRange(CrystalError):
    """A word or prefix index lies outside its valid range."""


class StringTruncated(CrystalError):
    """An operator string walk ran past the available graph edges."""


class DimensionMismatch(CrystalError):
    """Weight vectors or variable counts of different lengths were combined."""


class ClosureBudgetExceeded(CrystalError):
    """A graph or enumeration grew past the configured vertex budget."""


class ParseError(CrystalError):
    """Input text could not be parsed.

    Attributes:
        position: Offset (or line number for multi-line input) of the failure,
            when known.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MultipleSources(CrystalError):
    """An isomorphism check needs a unique source vertex but found several."""


class CycleDetected(CrystalError):
    """A monochromatic walk returned to a visited vertex."""
