"""Exception types shared across the library.

DomainError means bad input; ConvergenceFailureError means the library
failed; NoExtremalError is the problem's outcome above h_star. _count turns
a count argument that is not one into a DomainError.
"""

import operator

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


def _count(name: str, value, least: int, most: int = 2**20) -> int:
    """value as operator.index reads it, if that is an integer in least..most.

    ints, bools and numpy integers pass; anything else, a float or a string
    included, and any count out of range raise DomainError. The default
    most, 2**20, keeps a count whose arrays grow with it from asking numpy
    for more memory than any machine has.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or not least <= count <= most:
        raise DomainError(f"{name} must be an integer in {least}..{most}, got {value!r}")
    return count
