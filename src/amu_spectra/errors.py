"""Exception types shared across the package."""
from __future__ import annotations


class SpectraError(Exception):
    """Base class for failures raised by this library."""


class DimensionMismatch(SpectraError, ValueError):
    """Operands live on spaces of different dimensions."""


class NumericalError(SpectraError):
    """A numerical contract was violated (residual, cross-check, PSD floor)."""


class NearDependence(SpectraError, ValueError):
    """Input vectors are linearly dependent within tolerance."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class GridCapExceeded(SpectraError):
    """A requested grid would have more points than the configured cap."""

    def __init__(self, size: int, cap: int):
        count = size
        if isinstance(size, int) and size >= 10**15:
            from decimal import Decimal  # only here: float() of a count past 1.8e308 overflows

            count = f"{Decimal(size):.2e}"
        super().__init__(
            f"grid would have {count} points, above the cap {cap}; "
            "use a larger eta (coarser grid) or raise the cap explicitly"
        )
        self.size = size
        self.cap = cap


class HullDistanceError(SpectraError, ValueError):
    """A superposition target lies outside the convex hull of the sources."""

    def __init__(self, distance: float, tolerance: float):
        super().__init__(
            f"target lies {distance:.6e} outside the convex hull of the "
            f"source expectations (tolerance {tolerance:.1e})"
        )
        self.distance = distance
        self.tolerance = tolerance


class TupleFormatError(SpectraError, ValueError):
    """An operator-tuple file failed to parse or validate."""
