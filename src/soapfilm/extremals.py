"""Catenoid extremals of the two-ring soap-film problem.

A film spanning coaxial unit rings at x = -h and x = +h extremizes the area
functional among graphs y(x) > 0 exactly on the catenoid family

    y(x) = C cosh(x / C),        C cosh(h / C) = 1.

With tau = h / C the boundary condition becomes phi(tau) = cosh(tau) / tau
= 1 / h. phi is strictly convex on tau > 0 with a single minimum at tau_star
solving 1 - tau tanh(tau) = 0, so the problem has two solutions for
h < h_star = tau_star / cosh(tau_star), one (degenerate) solution at h_star,
and none beyond it. Either branch parameter is one solve of
log(h * phi(tau)) = 0 in log(tau), for every positive double h up to the
fold. Its slope is -mu(tau), the Jacobi field mu(s) = 1 - s tanh(s), so
each solve is a Newton loop of its own that evaluates both inline, and
tau_star, the root of mu, is three Newton steps taken when the module
loads. The equation is convex in log(tau), so Newton from the side where it
is positive converges monotonically. Each branch solve starts from an end of a
closed-form bracket, whose other end it never evaluates: h cosh(h) below
tau_1, tau_star below tau_2, and above them the fold offsets of the
quadratic log(h/h_star) + tau_star**2 (u - u*)**2 / 2 or, far from the
fold, iterates of tau -> log(2 tau / h), which stay above tau_2.

_Record, the base of CriticalConstants, Extremal and every other record in
the package, makes each an immutable named tuple that validates whenever it
is built, by _replace too.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Tuple, Union

from .errors import ConvergenceFailureError, DomainError, NoExtremalError

if TYPE_CHECKING:
    import numpy as np

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

_LOG_2 = math.log(2.0)

# The fold ends of the branch brackets are u* -+ (1 -+ _FOLD_MARGIN)*delta
# (see _lower_branch): bounds for any factor on the near side of 1, kept
# this far from 1 so that g there stands well above its rounding.
_FOLD_MARGIN = 1.0 / 64.0
# Past this delta (h below about 0.55) the upper bracket ends on iterates
# of U, which beat the fold end there, and the lower solve starts from its
# lower end; nearer the fold it starts from the inner one (see _lower_branch).
_FAR_FROM_FOLD = 0.5

# _solve_branch's evaluations: Newton from the convex side took at most 7
# over 60 000 h, so the budget is a guard against a wrong start, not a
# schedule.
_BRANCH_BUDGET = 100


def _log_cosh(t: float) -> float:
    """log(cosh(t)) for t >= 0, finite wherever t is.

    _solve_branch and Extremal.__new__ write the same sum inline: g runs
    about 9 times per solve_branches and an Extremal is built twice, and
    a call in either place costs more than the sum.
    """
    return t + math.log1p(math.exp(-2.0 * t)) - _LOG_2


class Branch(enum.Enum):
    """Which of the two catenoid solutions a parameter tau belongs to."""

    LOWER = "lower"
    UPPER = "upper"


# The members as module names: a lookup through the enum class costs about
# 0.1 us, and a build and its check would make three per Extremal
_LOWER, _UPPER = Branch.LOWER, Branch.UPPER


def phi(tau: float) -> float:
    """cosh(tau) / tau, the boundary-condition function of the reduced problem.

    Raises DomainError unless tau > 0 (NaN included). Returns +inf where
    the value overflows: tau above 710, where cosh does, or below 1/max float.
    """
    if not tau > 0.0:
        raise DomainError(f"phi requires tau > 0, got {tau!r}")
    if tau > _COSH_OVERFLOW:
        return math.inf
    return math.cosh(tau) / tau


def _same(x, y) -> bool:
    """Field equality as in a tuple, where arrays are equal by shape and value."""
    if x is y:
        return True
    sx, sy = getattr(x, "shape", None), getattr(y, "shape", None)
    if sx is None and sy is None:
        return bool(x == y)
    # a float is shape (); == on unequal shapes would broadcast or raise
    return (sx or ()) == (sy or ()) and bool((x == y).all())


class _Record(tuple):
    """Base of the immutable records: named tuples equal only within their class.

    A record is the tuple of its fields, with a field-wise repr, equality and
    hash, and equals no tuple of another class. Array fields are equal where
    their shapes and values are, and make the record unhashable. Assigning
    to a field or to any other name raises AttributeError, and _make and
    _replace build through the class, so they validate as it does.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __eq__(self, other):
        return type(other) is type(self) and all(map(_same, self, other))

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class CriticalConstants(_Record, namedtuple("CriticalConstants", "tau_star h_star")):
    """The critical parameter tau_star and half-distance h_star.

    tau_star is the root of 1 - tau tanh(tau); h_star = tau_star/cosh(tau_star)
    is the largest ring half-distance still spanned by a catenoid.
    """

    __slots__ = ()

    def __new__(cls, tau_star: float, h_star: float) -> CriticalConstants:
        residual = abs(1.0 - tau_star * math.tanh(tau_star))
        if not residual <= 1e-12:
            raise DomainError(f"tau_star residual {residual} exceeds 1e-12")
        if not abs(h_star - tau_star / math.cosh(tau_star)) <= 1e-12:
            raise DomainError("h_star inconsistent with tau_star")
        return tuple.__new__(cls, (tau_star, h_star))


def _solve_critical() -> CriticalConstants:
    """Three Newton steps on mu(tau) = 1 - tau*tanh(tau) from 1.2.

    mu'' = -2*mu*sech(tau)**2 vanishes at the root, so the steps converge
    cubically: the third leaves unchanged the float nearest the root.
    """
    tau = 1.2
    for _ in range(3):
        tanh = math.tanh(tau)
        tau += (1.0 - tau * tanh) / (tanh + tau * (1.0 - tanh * tanh))
    return CriticalConstants(tau_star=tau, h_star=tau / math.cosh(tau))


_CRITICAL = _solve_critical()
_TAU_STAR, _H_STAR = _CRITICAL
_LOG_H_STAR = math.log(_H_STAR)
# u* = log(tau_star), the centre of both branch brackets (see _lower_branch)
_U_STAR = math.log(_TAU_STAR)


def critical_constants() -> CriticalConstants:
    """The critical constants, solved once when the module loads."""
    return _CRITICAL


class Extremal(_Record, namedtuple("Extremal", "h tau branch")):
    """One catenoid solution: y(x) = c cosh(x / c) on [-h, h] with c = h/tau.

    Raises DomainError unless h and tau are positive, h*cosh(tau) = tau to
    within 1e-10 in its log (at every positive double h, where c may be 0),
    and tau lies on the named branch's side of tau_star (to within 1e-9).
    The library builds every Extremal positionally, which binds faster than
    keywords, and through these same checks.
    """

    __slots__ = ()

    def __new__(cls, h: float, tau: float, branch: Branch) -> Extremal:
        if not (h > 0.0 and tau > 0.0):
            raise DomainError("h and tau must both be positive")
        # log(h*cosh(tau)/tau), which stays finite where cosh(tau) overflows;
        # log cosh inlined (see _log_cosh)
        residual = tau + math.log1p(math.exp(-2.0 * tau)) - _LOG_2 - math.log(tau) + math.log(h)
        if not abs(residual) <= 1e-10:
            raise DomainError(f"boundary condition violated: log(h*cosh(tau)/tau) = {residual!r}")
        if branch is _LOWER and tau > _TAU_STAR + 1e-9:
            raise DomainError("lower-branch parameter exceeds tau_star")
        if branch is _UPPER and tau < _TAU_STAR - 1e-9:
            raise DomainError("upper-branch parameter is below tau_star")
        return tuple.__new__(cls, (h, tau, branch))

    @property
    def c(self) -> float:
        """The waist radius h/tau, subnormal or 0 where tau_2 > 709.1."""
        return self[0] / self[1]


def _solve_branch(log_h: float, u: float, lo: float, hi: float) -> float:
    """The root tau of g(u) = log(h*phi(tau)), u = log(tau), from u in [lo, hi].

    g forms neither 1/h nor cosh(tau), so it cannot overflow at tiny h. Its
    slope t*tanh(t) - 1 = -mu(t) costs nothing beyond e = exp(-2t), which g
    forms anyway, so every step is a Newton step. Both are written inline: a
    call per evaluation, as a generic root finder makes, costs more than g.
    tol_f = 2.3e-16 is g's rounding floor, one ulp of the O(1) terms that
    cancel in it: an iterate that meets it is at the root to within g's
    noise.

    g'' = t*tanh(t) + t**2 sech(t)**2 > 0: the tangent lies below g, so each
    Newton point lands where g >= 0, and every later one between its
    iterate and the root, on the same side. The loop is that monotone
    Newton iteration and nothing else: the caller names the side by its
    start u, where g > 0, or, on the lower branch near the fold, where
    g < 0 and the first step crosses to g >= 0. It stops on |g| <= tol_f;
    on g <= tol_f once an iterate had g > 0, since from the convex side g
    can fall below 0 only by rounding; or on a Newton point that rounds to
    its iterate: where an ulp of u exceeds g's rounding (u near -690 at
    h = 1e-300, or tau_2 near 700), Newton lands on the root's float and
    stays there. No end of [lo, hi] is evaluated. Raises
    ConvergenceFailureError on an iterate outside [lo, hi] or on a spent
    budget: either is a bug in the closed-form start or bracket.
    """
    exp, log1p, log_2 = math.exp, math.log1p, _LOG_2
    above = False
    for _ in range(_BRANCH_BUDGET):
        if not lo <= u <= hi:
            raise ConvergenceFailureError(f"branch solve left [{lo!r}, {hi!r}] at u = {u!r}")
        # g = _log_cosh(t) - u + log_h and its slope, inlined (see _log_cosh)
        t = exp(u)
        e = exp(-2.0 * t)
        g = t + log1p(e) - log_2 - u + log_h
        if g <= 2.3e-16 and (above or g >= -2.3e-16):
            return t
        above = g > 0.0
        s = u - g / (t * (1.0 - e) / (1.0 + e) - 1.0)
        if s == u:
            return t
        u = s
    raise ConvergenceFailureError(
        f"branch solve missed tolerance after {_BRANCH_BUDGET} steps; last u = {u!r}"
    )


def _lower_branch(h: float) -> Tuple[Extremal, Tuple[float, float, float]]:
    """solve_branches(h)[0], raising as it does, and the upper bracket's data.

    The data are log(h), the fold offset delta and the pad. Both brackets
    rest on g being convex in u with g(u*) = log(h/h_star), g'(u*) = 0,
    g''(u*) = tau_star**2 and g''' > 0: then g(u* - delta) <= 0 <=
    g(u* + delta) for tau_star**2 * delta**2 / 2 = log(h_star/h), so
    u_1 <= u* - delta and u_2 <= u* + delta. The pad widens every end past
    the rounding of u (2 ulps of log h) and of g. The lower solve starts at
    the lower end, where g > 0, or, for delta <= _FAR_FROM_FOLD, at the
    inner end u* - (1 - _FOLD_MARGIN)*delta + pad, where g < 0 with u_1 a
    little more than delta/64 below it. There it lies nearer u_1 than the
    lower end, and its first Newton step crosses to g >= 0. Every h up to
    h_star takes this solve, h_star itself (delta = 0) included; any h
    above it raises NoExtremalError.
    """
    if not h > 0.0:
        raise DomainError(f"half-distance must be positive, got {h!r}")
    if h > _H_STAR:
        raise NoExtremalError(h, _H_STAR)
    log_h = math.log(h)
    # log h* - log h, finite where h*/h overflows (h below 3.7e-309)
    delta = math.sqrt(2.0 * (_LOG_H_STAR - log_h)) / _TAU_STAR
    pad = 4e-15 - 4.5e-16 * log_h
    # tau_1 = h*cosh(tau_1) > h*cosh(h)
    lo = math.log(h * math.cosh(h)) - pad
    hi = _U_STAR - (1.0 - _FOLD_MARGIN) * delta + pad
    tau = _solve_branch(log_h, lo if delta > _FAR_FROM_FOLD else hi, lo, hi)
    return Extremal(h, tau, _LOWER), (log_h, delta, pad)


def solve_branches(h: float) -> Tuple[Extremal, Extremal]:
    """Both catenoid solutions at half-distance h, ordered lower then upper.

    Every h up to h_star takes the same two solves. The true fold lies
    8.2e-18 above the double h_star, so the branches are distinct at every
    double below it; g is flat there to its rounding, which leaves each
    within 5e-9 relative of its root. At h_star itself both solves land on
    one double, 23 ulps above tau_star.

    Raises:
        DomainError: h is not positive (NaN included).
        NoExtremalError: h exceeds h_star.
    """
    lower, (log_h, delta, pad) = _lower_branch(h)
    if delta > _FAR_FROM_FOLD:
        # cosh(tau) >= e^tau/2 puts tau_2 below 2*log(2/h) + 2 and below
        # U(tau) = log(2*tau/h) of any tau >= tau_2; U is increasing, so its
        # iterates stay above tau_2
        hi = 2.0 * (_LOG_2 - log_h) + 2.0
        for _ in range(3):
            hi = math.log(2.0 * hi) - log_h
        hi = math.log(hi)
    else:
        hi = _U_STAR + (1.0 + _FOLD_MARGIN) * delta
    tau2 = _solve_branch(log_h, hi + pad, _U_STAR - pad, hi + pad)
    return lower, Extremal(h, tau2, _UPPER)


def critical_extremal() -> Extremal:
    """The degenerate catenoid at the critical half-distance."""
    return Extremal(_H_STAR, _TAU_STAR, _LOWER)


def profile(e: Extremal, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Evaluate the catenoid radius y(x) = c cosh(x / c).

    Accepts a scalar or an array of positions; every position must lie in
    [-h, h] up to a roundoff slack of 1e-12*h (NaN is rejected). Where c is
    subnormal or 0 (tau_2 above 709.1, h below 1.6e-305), x/c would divide
    by few bits or none: there y = exp(log h - log tau + log cosh(tau*x/h)).
    """
    import numpy as np
    h, tau = e.h, e.tau
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= h + 1e-12 * h):
        raise DomainError(f"position outside [-{h}, {h}]")
    c = h / tau
    if c >= 2.2250738585072014e-308:
        y = c * np.cosh(arr / c)
    else:
        t = np.abs(arr / h) * tau
        y = np.exp(math.log(h) - math.log(tau) + t + np.log1p(np.exp(-2.0 * t)) - _LOG_2)
    return float(y) if arr.ndim == 0 else y


def area_closed_form(e: Extremal) -> float:
    """Film area 2*pi*h^2/tau + pi*h^2*sinh(2*tau)/tau^2 of an extremal.

    Written in c = h/tau, whose factors do not underflow at tiny h. Where
    cosh(tau) overflows, c*cosh(tau) is exp(log h - log tau + log cosh tau).
    """
    h, tau = e.h, e.tau
    c = h / tau
    if tau > _COSH_OVERFLOW:
        c_cosh = math.exp(math.log(h) - math.log(tau) + _log_cosh(tau))
        return math.tau * (h * c + c_cosh * c_cosh)
    return math.tau * (h * c + (c * math.sinh(tau)) * (c * math.cosh(tau)))


def small_h_asymptotics(h: float) -> Tuple[float, float]:
    """The two branch-parameter ratios that limit to 1 and 2 as h -> 0.

    Returns (tau1/h, h*exp(tau2)/tau2). Requires 0 < h < h_star/10 so the
    branches are far apart and the ratios are meaningful; raises DomainError
    otherwise.
    """
    if not (0.0 < h < _H_STAR / 10.0):
        raise DomainError(f"asymptotic regime needs 0 < h < {_H_STAR / 10.0}, got {h!r}")
    lower, upper = solve_branches(h)
    # exp(tau2) overflows below h ~ 1e-305, so it is applied in two halves
    half = math.exp(0.5 * upper.tau)
    return lower.tau / h, h * half * half / upper.tau
