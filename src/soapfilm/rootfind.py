"""Deterministic bracketed scalar root finding.

Every transcendental equation in the library (branch parameters, the critical
parameter, eigenvalue refinement, the Goldschmidt constant) is solved through
`find_root_bracketed`, a hybrid of bisection and secant steps. Bisection is
forced on every other iteration so the bracket provably shrinks; secant steps
are only taken when they land strictly inside the current bracket. The
iteration uses no randomness and no global state, so repeated calls with the
same inputs return bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, MaxIterationsError, NoSignChangeError

__all__ = ["Bracket", "find_root_bracketed"]

# budget of function evaluations after the endpoints
_MAX_ITER = 200


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] together with the function values at its ends.

    A valid bracket straddles a root: f_lo * f_hi < 0, or one endpoint is an
    exact root.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise DomainError(f"bracket endpoints must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.f_lo * self.f_hi > 0.0:
            raise NoSignChangeError(
                f"f({self.lo}) = {self.f_lo} and f({self.hi}) = {self.f_hi} share a sign"
            )

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        """Evaluate f at both endpoints and build the bracket."""
        return cls(lo, hi, f(lo), f(hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


def find_root_bracketed(
    f: Callable[[float], float],
    bracket: Bracket,
    *,
    tol_x: float,
    tol_f: float,
) -> float:
    """Locate a root of f inside a sign-changing bracket.

    Args:
        f: continuous scalar function.
        bracket: interval with f values of opposite sign at the ends.
        tol_x: stop once the bracket width is at most this.
        tol_f: stop once |f| at the iterate is at most this.

    Returns:
        A point x with bracket.lo <= x <= bracket.hi satisfying |f(x)| <= tol_f
        or lying in a residual bracket of width <= tol_x.

    Raises:
        NoSignChangeError: the bracket does not straddle a root.
        MaxIterationsError: the evaluation budget ran out before either tolerance was met.
        DomainError: a tolerance is not positive (NaN included).
        ValueError: f returned a non-finite value.
    """
    if not (tol_x > 0.0 and tol_f > 0.0):
        raise DomainError("tolerances must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    # The Bracket type already validated the sign change.

    # Secant memory: the two most recent evaluations anywhere in the bracket.
    x1, f1 = a, fa
    x2, f2 = b, fb

    for k in range(_MAX_ITER):
        if b - a <= tol_x:
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            # The bracket has collapsed to adjacent floats; no refinement left.
            return mid
        x = mid
        # Secant proposal on even iterations; plain bisection on odd ones so
        # the bracket halves at least every second step.
        if (k % 2 == 0) and f2 != f1:
            s = x2 - f2 * (x2 - x1) / (f2 - f1)
            if a < s < b:
                x = s
        fx = f(x)
        if not math.isfinite(fx):
            raise ValueError(f"function returned non-finite value {fx!r} at {x!r}")
        if abs(fx) <= tol_f:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        x1, f1 = x2, f2
        x2, f2 = x, fx

    raise MaxIterationsError(
        f"no root to tolerance after {_MAX_ITER} evaluations; residual bracket [{a}, {b}]"
    )
