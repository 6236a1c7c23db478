"""Exception types shared across the library.

DomainError means bad input; ConvergenceFailureError means the library
failed; NoExtremalError is the problem's outcome above h_star. _count turns
a count argument that is not one into a DomainError.
"""

import operator
from typing import Optional

__all__ = [
    "SoapFilmError",
    "DomainError",
    "NoExtremalError",
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


class ConvergenceFailureError(SoapFilmError):
    """A search that must succeed for well-posed inputs did not; signals a bug."""


def _count(name: str, value, least: int, most: Optional[int] = None) -> int:
    """value as operator.index reads it, if that is an integer in least..most.

    ints, bools and numpy integers pass; anything else, a float or a string
    included, and any count out of range raise DomainError.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least or (most is not None and count > most):
        span = f"at least {least}" if most is None else f"in {least}..{most}"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return count
