"""Areas, the collapsed-film threshold, and the force between the rings.

The two-disk (collapsed) configuration has total area 2*pi for unit rings.
goldschmidt_constant gives the half-distance at which the stable catenoid's
area crosses that value, sqrt(W_0(1/e)) in closed form; force evaluates the
attraction F = -4*pi*h/tau_1 the film exerts on the rings, together with its
h-derivative in closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import DomainError, NoExtremalError
from .extremals import Extremal, _lower_branch, _Record, critical_constants

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "area_quadrature",
    "goldschmidt_constant",
    "ForceSample",
    "force",
]


def area_quadrature(grid: np.ndarray, y: np.ndarray) -> float:
    """Surface area 2*pi * integral of y*sqrt(1+y'^2) over a sampled profile.

    grid must be uniform; y must be strictly positive (a graph that touches
    the axis is not a film radius). The derivative uses second-order
    differences, the integral composite Simpson. Raises DomainError where
    check_uniform_grid, sampled_derivative or composite_simpson do, on a
    shape mismatch, on a non-positive or non-finite y, and where the
    integrand y*sqrt(1+y'^2) overflows the float range.
    """
    import numpy as np
    from .grids import check_uniform_grid, composite_simpson, sampled_derivative
    dx = check_uniform_grid(grid)
    y = np.asarray(y, dtype=float)
    if y.shape != grid.shape:
        raise DomainError("grid and y must have the same shape")
    if not np.all(y > 0.0):
        raise DomainError("profile must be strictly positive")
    dy = sampled_derivative(y, dx)
    slope = np.abs(dy)
    with np.errstate(over="ignore"):
        # sqrt(1 + y'^2) rounds to |y'| long before y'^2 overflows
        stretch = np.where(slope > 1e150, slope, np.sqrt(1.0 + dy * dy))
        integrand = math.tau * y * stretch
    if not np.all(np.isfinite(integrand)):
        raise DomainError("the area integrand overflows the float range")
    return composite_simpson(integrand, dx)


def goldschmidt_constant() -> float:
    """Half-distance where the stable catenoid's area equals the disks' 2*pi.

    In closed form h_G = sqrt(W_0(1/e)), W_0 the principal Lambert W
    (DLMF 4.13). On the lower catenoid c = 1/cosh(tau_1) and h = tau_1*c, so
    its area is 2*pi*(tanh(tau) + tau/cosh^2(tau)) at tau = tau_1. Equal to
    2*pi, it gives 2*tau = 1 + exp(-2*tau), that is cosh(tau_G) =
    tau_G*exp(tau_G); so h_G = exp(-tau_G) and h_G^2*exp(h_G^2) = 1/e.
    w = W_0(1/e) solves w + ln(w) + 1 = 0: six Newton steps from 0.28 reach
    its float, and h_G = sqrt(w) (exp(-tau_G) lands an ulp low). The slope
    of the area is dS/dh = -F(h) = 4*pi*h/tau_1: the ring force is minus the
    slope of the area. Below the returned value the film beats the two flat
    disks; above it the disks win even though the catenoid persists up to
    h_star.
    """
    w = 0.28
    for _ in range(6):
        w -= (w + math.log(w) + 1.0) / (1.0 + 1.0 / w)
    return math.sqrt(w)


class ForceSample(_Record, namedtuple("ForceSample", "h force dforce_dh")):
    """Ring force at one half-distance, with its closed-form slope."""

    __slots__ = ()


def force(h: float) -> ForceSample:
    """Attractive force F(h) = -4*pi*h/tau_1 on either ring, and dF/dh.

    From tau = h*cosh(tau), tau_1' = cosh(tau_1)/mu(tau_1) with
    mu(s) = 1 - s*tanh(s), so dF/dh = 4*pi*tanh(tau_1)/mu(tau_1), unbounded
    toward h_star where mu vanishes. It grows like (h_star - h)**-0.5, so
    one ulp of h moves it by 41 % at the last double below h_star. Its
    error there is 5.6 %, and within 1e-12 below h_star it is at most the
    change over 2.4 ulps of h (measured against 50-digit roots).

    Raises DomainError unless h > 0 (NaN included), and NoExtremalError
    from h_star on: above it no catenoid exists, and at h_star the lower
    solve lands on the fold, where mu(tau_1) is not positive and the slope
    has no value.
    """
    return _force(_lower_branch(h)[0])


def _force(lower: Extremal) -> ForceSample:
    """force(lower.h) from the lower extremal; NoExtremalError where mu <= 0."""
    h, tau = lower.h, lower.tau
    tanh = math.tanh(tau)
    mu = 1.0 - tau * tanh
    if not mu > 0.0:
        raise NoExtremalError(h, critical_constants().h_star)
    slope = 2.0 * math.tau * tanh / mu
    # h/tau_1 first: -4*pi*h is subnormal, and loses bits, below h ~ 1.75e-309
    return ForceSample(h, -2.0 * math.tau * (h / tau), slope)
