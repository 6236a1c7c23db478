"""Catenoid extremals of the two-ring soap-film problem.

A film spanning coaxial unit rings at x = -h and x = +h extremizes the area
functional among graphs y(x) > 0 exactly on the catenoid family

    y(x) = C cosh(x / C),        C cosh(h / C) = 1.

With tau = h / C the boundary condition becomes phi(tau) = cosh(tau) / tau
= 1 / h. phi is strictly convex on tau > 0 with a single minimum at tau_star
solving 1 - tau tanh(tau) = 0, so the problem has two solutions for
h < h_star = tau_star / cosh(tau_star), one (degenerate) solution at h_star,
and none beyond it. Either branch parameter is one bracketed solve of
log(h * phi(tau)) = 0 in log(tau), from h = 1e-307 up to the fold.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .config import TWO_PI
from .errors import DomainError, NoExtremalError
from .rootfind import Bracket, find_root_bracketed

__all__ = [
    "Branch",
    "CriticalConstants",
    "Extremal",
    "phi",
    "critical_constants",
    "solve_branches",
    "critical_extremal",
    "profile",
    "area_closed_form",
    "small_h_asymptotics",
]

# cosh overflows float64 just above exp(709); phi is astronomically large
# there anyway, so clip to +inf instead of raising.
_COSH_OVERFLOW = 710.0

# h within this distance of h_star is treated as the critical case: the two
# branch parameters are closer than root-finding can resolve them.
_CRITICAL_TOL = 1e-12

# Below this h, c = h/tau_2 is subnormal and so coarse that the upper
# extremal's boundary check (1e-10) fails at some h from 1.24e-308 down;
# at 1e-307 that check's residual is at most 1.3e-11.
_H_MIN = 1e-307

_LOG_2 = math.log(2.0)


def _log_cosh(t: float) -> float:
    """log(cosh(t)) for t >= 0, finite wherever t is.

    _solve_branch's g writes the same sum inline: it runs about 60 times per
    solve_branches, and a call there costs about 4 % of the solve.
    """
    return t + math.log1p(math.exp(-2.0 * t)) - _LOG_2


class Branch(enum.Enum):
    """Which of the two catenoid solutions a parameter tau belongs to."""

    LOWER = "lower"
    UPPER = "upper"


def phi(tau: float) -> float:
    """cosh(tau) / tau, the boundary-condition function of the reduced problem.

    Raises DomainError for tau <= 0. Returns +inf where cosh overflows.
    """
    if tau <= 0.0:
        raise DomainError(f"phi requires tau > 0, got {tau!r}")
    if tau > _COSH_OVERFLOW:
        return math.inf
    return math.cosh(tau) / tau


@dataclass(frozen=True)
class CriticalConstants:
    """The critical parameter tau_star and half-distance h_star.

    tau_star is the root of 1 - tau tanh(tau); h_star = tau_star/cosh(tau_star)
    is the largest ring half-distance still spanned by a catenoid.
    """

    tau_star: float
    h_star: float

    def __post_init__(self) -> None:
        residual = abs(1.0 - self.tau_star * math.tanh(self.tau_star))
        if residual > 1e-12:
            raise ValueError(f"tau_star residual {residual} exceeds 1e-12")
        if abs(self.h_star - self.tau_star / math.cosh(self.tau_star)) > 1e-12:
            raise ValueError("h_star inconsistent with tau_star")


@functools.cache
def critical_constants() -> CriticalConstants:
    """Solve for the critical constants once; later calls reuse the result.

    The cache is initialize-once/read-many: concurrent first calls may both
    compute, but they produce identical values.
    """

    def g(tau: float) -> float:
        return 1.0 - tau * math.tanh(tau)

    tau_star = find_root_bracketed(g, Bracket.from_function(g, 1.0, 1.5), tol_x=1e-14, tol_f=1e-13)
    return CriticalConstants(tau_star=tau_star, h_star=tau_star / math.cosh(tau_star))


@dataclass(frozen=True)
class Extremal:
    """One catenoid solution: y(x) = c cosh(x / c) on [-h, h] with c = h/tau."""

    h: float
    tau: float
    c: float
    branch: Branch

    def __post_init__(self) -> None:
        if not (self.h > 0.0 and self.tau > 0.0 and self.c > 0.0):
            raise DomainError("h, tau, c must all be positive")
        # log(c*cosh(h/c)), which stays finite where cosh(h/c) overflows
        residual = math.log(self.c) + _log_cosh(self.h / self.c)
        if not abs(residual) <= 1e-10:
            raise DomainError(f"boundary condition violated: log(c*cosh(h/c)) = {residual!r}")
        tau_star = critical_constants().tau_star
        if self.branch is Branch.LOWER and self.tau > tau_star + 1e-9:
            raise DomainError("lower-branch parameter exceeds tau_star")
        if self.branch is Branch.UPPER and self.tau < tau_star - 1e-9:
            raise DomainError("upper-branch parameter is below tau_star")


def _solve_branch(log_h: float, lo: float, hi: float) -> float:
    """The root tau of g(u) = log(h*phi(tau)), u = log(tau), with u in [lo, hi].

    g forms neither 1/h nor cosh(tau), so it cannot overflow at tiny h.
    tol_x is about one ulp of u, since h*phi(tau) - 1 moves by tau per unit
    of u; tol_f is g's rounding floor, so near the fold, where g is flat,
    the bracket shrinks as far as the noise allows.
    """

    def g(u: float) -> float:
        # _log_cosh(t) - u + log_h, inlined (see _log_cosh)
        t = math.exp(u)
        return t + math.log1p(math.exp(-2.0 * t)) - _LOG_2 - u + log_h

    bracket = Bracket.from_function(g, lo, hi)
    return math.exp(find_root_bracketed(g, bracket, tol_x=1e-15, tol_f=1e-16))


def solve_branches(h: float) -> Tuple[Extremal, Extremal]:
    """Both catenoid solutions at half-distance h, ordered lower then upper.

    For h within 1e-12 of h_star the two parameters coincide at tau_star and
    the returned extremals are the single degenerate catenoid tagged once per
    branch.

    Raises:
        DomainError: h is below 1e-307 (NaN included), where c = h/tau_2
            is too coarse to hold the boundary condition.
        NoExtremalError: h exceeds the critical half-distance.
    """
    if not h >= _H_MIN:
        raise DomainError(f"half-distance must be at least {_H_MIN!r}, got {h!r}")
    cc = critical_constants()
    if abs(h - cc.h_star) <= _CRITICAL_TOL:
        lower = Extremal(h=h, tau=cc.tau_star, c=h / cc.tau_star, branch=Branch.LOWER)
        upper = Extremal(h=h, tau=cc.tau_star, c=h / cc.tau_star, branch=Branch.UPPER)
        return lower, upper
    if h > cc.h_star:
        raise NoExtremalError(h, cc.h_star)
    # tau = h*cosh(tau) puts tau_1 in [h, tau_star]; cosh(t) >= e^t / 2 puts
    # tau_2 below 2*log(2/h) + 2.
    log_h, log_tau_star = math.log(h), math.log(cc.tau_star)
    tau1 = _solve_branch(log_h, log_h, log_tau_star)
    tau2 = _solve_branch(log_h, log_tau_star, math.log(2.0 * (_LOG_2 - log_h) + 2.0))
    lower = Extremal(h=h, tau=tau1, c=h / tau1, branch=Branch.LOWER)
    upper = Extremal(h=h, tau=tau2, c=h / tau2, branch=Branch.UPPER)
    return lower, upper


def critical_extremal() -> Extremal:
    """The degenerate catenoid at the critical half-distance."""
    cc = critical_constants()
    return Extremal(h=cc.h_star, tau=cc.tau_star, c=cc.h_star / cc.tau_star, branch=Branch.LOWER)


def profile(e: Extremal, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Evaluate the catenoid radius y(x) = c cosh(x / c).

    Accepts a scalar or an array of positions; every position must lie in
    [-h, h] (up to roundoff slack).
    """
    arr = np.asarray(x, dtype=float)
    slack = 1e-12 * max(1.0, e.h)
    if np.any(np.abs(arr) > e.h + slack):
        raise DomainError(f"position outside [-{e.h}, {e.h}]")
    y = e.c * np.cosh(arr / e.c)
    if arr.ndim == 0:
        return float(y)
    return y


def area_closed_form(e: Extremal) -> float:
    """Film area 2*pi*h^2/tau + pi*h^2*sinh(2*tau)/tau^2 of an extremal.

    Written in c = h/tau, whose factors do not underflow at tiny h. Where
    cosh(tau) overflows, c*cosh(tau) is formed from logs and tanh(tau) is 1.
    """
    c, tau = e.c, e.tau
    if tau > _COSH_OVERFLOW:
        c_cosh = math.exp(math.log(c) + _log_cosh(tau))
        return TWO_PI * (e.h * c + c_cosh * c_cosh)
    return TWO_PI * (e.h * c + (c * math.sinh(tau)) * (c * math.cosh(tau)))


def small_h_asymptotics(h: float) -> Tuple[float, float]:
    """The two branch-parameter ratios that limit to 1 and 2 as h -> 0.

    Returns (tau1/h, h*exp(tau2)/tau2). Requires 0 < h < h_star/10 so the
    branches are far apart and the ratios are meaningful.
    """
    cc = critical_constants()
    if not (0.0 < h < cc.h_star / 10.0):
        raise DomainError(f"asymptotic regime needs 0 < h < {cc.h_star / 10.0}, got {h!r}")
    lower, upper = solve_branches(h)
    return lower.tau / h, h * math.exp(upper.tau) / upper.tau
