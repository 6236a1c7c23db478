"""Deterministic bracketed scalar root finding.

No module of the package calls `find_root_bracketed`: each solve runs a
loop of its own with its function written inline, which costs less than
this solver's callback and generic checks. The branch equation is convex,
so extremals._solve_branch is a plain Newton loop from one bracket end;
spectrum.eigenvalues takes this solver's steps on the phase residual, and
stops one evaluation early where the secant has pinned the root; tau_star
and the Goldschmidt constant are a few Newton steps each. The function is
kept for the benchmark's traced run, whose `rootfind` span wraps it by
name (perfbench/spans.py). Each iteration here
proposes the secant point of the two most recent evaluations. The point is
kept at least tol_x/2, and at least one float, from the latest evaluation
(Brent's minimal step), so that a root next to it gets bracketed, then
projected as in the ITP method (Oliveira & Takahashi, ACM TOMS 47(1), 2021)
onto a ball around the bracket midpoint that shrinks so the bracket reaches
tol_x within 4 evaluations of bisection's count; a point outside the
bracket is replaced by the midpoint. The iteration uses no randomness and
no global state, so repeated calls with the same inputs return
bit-identical results. Any input the solver cannot work on, a bracket
included, is a DomainError.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceFailureError, DomainError

__all__ = ["find_root_bracketed"]

# budget of function evaluations after the endpoints
_MAX_ITER = 200
# evaluations allowed beyond bisection's count, which _MAX_WIDTH caps at 98
_N0 = 4
_MAX_WIDTH = 2.0**98


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
            at most 2**98 times tol_x. f is evaluated at most
            ceil(log2((hi - lo)/tol_x)) + 4 times after the ends.
        tol_f: stop once |f| at the iterate is at most this.

    Returns:
        A point x with lo <= x <= hi satisfying |f(x)| <= tol_f or lying in a
        residual bracket of width <= tol_x, give or take the rounding of its
        ends where the evaluation bound ends the search.

    Raises:
        DomainError: lo < hi fails or an end is not finite (NaN included), a
            tolerance is not positive, the bracket is too wide for tol_x, f
            has the same sign at both ends, or f returned a non-finite value.
        ConvergenceFailureError: the evaluation budget ran out before either
            tolerance was met; the width bound rules this out, so it is a bug.
    """
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"bracket ends must be finite with lo < hi, got [{lo!r}, {hi!r}]")
    if not (tol_x > 0.0 and tol_f > 0.0):
        raise DomainError("tolerances must be positive")
    widths = (hi - lo) / tol_x
    if not widths <= _MAX_WIDTH:
        raise DomainError(f"bracket [{lo!r}, {hi!r}] is wider than 2**98 tol_x = {tol_x!r}")
    a, b = lo, hi
    fa, fb = f(a), f(b)
    # inf - inf and NaN - NaN are NaN: zero exactly where both are finite
    if not (fa - fa) + (fb - fb) == 0.0:
        raise DomainError(f"f returned a non-finite value at an end of [{a!r}, {b!r}]")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise DomainError(f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} share a sign")

    # the secant's two most recent evaluations
    x1, f1 = a, fa
    x2, f2 = b, fb
    least = 0.5 * tol_x
    copysign = math.copysign

    # tol_x * p bounds the width the next evaluation leaves; p halves with each
    p = 2.0 ** (math.ceil(math.log2(widths if widths > 1.0 else 1.0)) + _N0 - 1)
    for _ in range(_MAX_ITER):
        w = b - a
        # p < 1: the budget is spent, and the width is tol_x up to rounding
        if w <= tol_x or p < 1.0:
            return a + 0.5 * w
        mid = a + 0.5 * w
        if not (a < mid < b):
            # The bracket has collapsed to adjacent floats; no refinement left.
            return mid
        # The secant point, at least tol_x/2 from x2 so that a root next to
        # it gets bracketed (Brent's minimal step), then within r of the
        # midpoint: the next bracket is at most tol_x * p wide.
        r, p = tol_x * p - 0.5 * w, 0.5 * p
        s = x2 - f2 * (x2 - x1) / (f2 - f1) if f2 != f1 else mid
        if -least < s - x2 < least:
            s = x2 + copysign(least, mid - x2)
            if s == x2:
                # tol_x/2 is under half an ulp of x2: step to the next float
                s = math.nextafter(x2, mid)
        d = s - mid
        if d > r or d < -r:
            s = mid + copysign(r, d) if r > 0.0 else mid
        x = s if a < s < b else mid
        fx = f(x)
        if not fx - fx == 0.0:
            raise DomainError(f"f({x!r}) returned a non-finite value {fx!r}")
        if -tol_f <= fx <= tol_f:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b = x
        x1, f1 = x2, f2
        x2, f2 = x, fx

    raise ConvergenceFailureError(
        f"no root to tolerance after {_MAX_ITER} evaluations; residual bracket [{a}, {b}]"
    )
