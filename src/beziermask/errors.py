"""Exception types shared across the package, and its one integer rule."""

import operator


class BezierMaskError(Exception):
    """Base class for all package-specific errors."""


class PgmFormatError(BezierMaskError):
    """Malformed or unsupported PGM data."""


class ContourFormatError(BezierMaskError):
    """Contour JSON violates the schema or the closure invariant."""


class EmptyMaskError(BezierMaskError):
    """Operation requires at least one foreground pixel."""


class DegenerateShapeError(BezierMaskError):
    """Object too small or malformed for the requested operation."""


class UndefinedMetricError(BezierMaskError):
    """Metric is undefined for the given inputs (e.g. empty point set)."""


def _integer(value, name: str) -> int:
    """value as an int (operator.index): TypeError naming it unless it is an
    integer, so 2.5, 2.0 and "8" are refused alike."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None
