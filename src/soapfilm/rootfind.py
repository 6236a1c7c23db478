"""Deterministic bracketed scalar root finding.

Every transcendental equation in the library (branch parameters, the critical
parameter, eigenvalue refinement, the Goldschmidt constant) is solved through
`find_root_bracketed`, a hybrid of bisection and secant steps. Bisection is
forced on every other iteration so the bracket provably shrinks; secant steps
are only taken when they land strictly inside the current bracket. The
iteration uses no randomness and no global state, so repeated calls with the
same inputs return bit-identical results. Any input the solver cannot work
on, a bracket included, is a DomainError.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError, MaxIterationsError

__all__ = ["find_root_bracketed"]

# budget of function evaluations after the endpoints
_MAX_ITER = 200
# Every second evaluation bisects, so a bracket at most this many tol_x wide
# is down to tol_x before the budget runs out.
_MAX_WIDTH = 2.0 ** (_MAX_ITER // 2 - 2)


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol_x: float,
    tol_f: float,
) -> float:
    """Locate a root of f inside the sign-changing bracket [lo, hi].

    f is evaluated at lo, then at hi, then at each iterate.

    Args:
        f: continuous scalar function.
        lo, hi: finite ends with lo < hi where f has opposite signs, or is 0
            at one end.
        tol_x: stop once the bracket width is at most this; hi - lo may be
            at most 2**98 times tol_x.
        tol_f: stop once |f| at the iterate is at most this.

    Returns:
        A point x with lo <= x <= hi satisfying |f(x)| <= tol_f or lying in a
        residual bracket of width <= tol_x.

    Raises:
        DomainError: lo < hi fails or an end is not finite (NaN included), a
            tolerance is not positive, the bracket is too wide for tol_x, f
            has the same sign at both ends, or f returned a non-finite value.
        MaxIterationsError: the evaluation budget ran out before either
            tolerance was met; the width bound rules this out, so it is a bug.
    """
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"bracket ends must be finite with lo < hi, got [{lo!r}, {hi!r}]")
    if not (tol_x > 0.0 and tol_f > 0.0):
        raise DomainError("tolerances must be positive")
    if not hi - lo <= _MAX_WIDTH * tol_x:
        raise DomainError(f"bracket [{lo!r}, {hi!r}] is wider than 2**98 tol_x = {tol_x!r}")
    a, b = lo, hi
    fa, fb = _finite(f, a), _finite(f, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise DomainError(f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} share a sign")

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
        fx = _finite(f, x)
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


def _finite(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if not math.isfinite(fx):
        raise DomainError(f"function returned non-finite value {fx!r} at {x!r}")
    return fx
