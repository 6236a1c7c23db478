"""Exception types shared across the library.

DomainError means bad input; MaxIterationsError and ConvergenceFailureError
mean the library failed; NoExtremalError is the problem's outcome above h_star.
"""

__all__ = [
    "SoapFilmError",
    "DomainError",
    "NoExtremalError",
    "MaxIterationsError",
    "ConvergenceFailureError",
]


class SoapFilmError(Exception):
    """Base class for all library-specific errors."""


class DomainError(SoapFilmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


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


class MaxIterationsError(SoapFilmError):
    """An iteration budget was exhausted before a tolerance was met."""


class ConvergenceFailureError(SoapFilmError):
    """A search that must succeed for well-posed inputs did not; signals a bug."""
