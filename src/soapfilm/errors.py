"""Exception types shared across the library."""

__all__ = [
    "SoapFilmError",
    "DomainError",
    "NoSignChangeError",
    "MaxIterationsError",
    "NoExtremalError",
    "GridMismatchError",
    "NonPositiveProfileError",
    "ZeroDenominatorError",
    "NotSupercriticalError",
    "ConvergenceFailureError",
]


class SoapFilmError(Exception):
    """Base class for all library-specific errors."""


class DomainError(SoapFilmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoSignChangeError(SoapFilmError):
    """A bracket does not straddle a root: f(lo) and f(hi) share a sign."""


class MaxIterationsError(SoapFilmError):
    """An iteration budget was exhausted before a tolerance was met."""


class NoExtremalError(SoapFilmError):
    """No catenoid spans the rings at this half-distance (h above critical).

    This is a domain outcome of the problem, not an internal failure; callers
    that sweep over h are expected to catch it.
    """

    def __init__(self, h: float, h_star: float):
        self.h = h
        self.h_star = h_star
        super().__init__(
            f"no extremal exists for h={h!r}: above the critical half-distance {h_star!r}"
        )


class GridMismatchError(SoapFilmError):
    """Two sampled functions live on incompatible grids."""


class NonPositiveProfileError(SoapFilmError):
    """A surface profile has a non-positive radius sample."""


class ZeroDenominatorError(SoapFilmError):
    """A quotient's denominator is numerically zero."""


class NotSupercriticalError(SoapFilmError):
    """An operation that needs tau > tau_star was called below that range."""


class ConvergenceFailureError(SoapFilmError):
    """A search that must succeed for well-posed inputs did not; signals a bug."""
