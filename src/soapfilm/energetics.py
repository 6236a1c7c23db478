"""Areas, the collapsed-film threshold, and the force between the rings.

The two-disk (collapsed) configuration has total area 2*pi for unit rings.
goldschmidt_constant finds the half-distance at which the stable catenoid's
area crosses that value; force evaluates the attraction F = -4*pi*h/tau_1
the film exerts on the rings, together with its h-derivative in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI
from .errors import DomainError, NoExtremalError, NonPositiveProfileError
from .grids import check_uniform_grid, composite_simpson, sampled_derivative
from .extremals import critical_constants, solve_branches
from .rootfind import Bracket, find_root_bracketed

__all__ = [
    "area_quadrature",
    "r_of_tau",
    "goldschmidt_constant",
    "ForceSample",
    "force",
]


def area_quadrature(grid: np.ndarray, y: np.ndarray) -> float:
    """Surface area 2*pi * integral of y*sqrt(1+y'^2) over a sampled profile.

    grid must be uniform; y must be strictly positive (a graph that touches
    the axis is not a film radius). The derivative uses second-order
    differences, the integral composite Simpson.
    """
    dx = check_uniform_grid(grid)
    y = np.asarray(y, dtype=float)
    if y.shape != grid.shape:
        raise ValueError("grid and y must have the same shape")
    if np.any(y <= 0.0):
        raise NonPositiveProfileError("profile must be strictly positive")
    dy = sampled_derivative(y, dx)
    return composite_simpson(TWO_PI * y * np.sqrt(1.0 + dy * dy), dx)


def r_of_tau(tau: float) -> float:
    """Scaled area 2/tau + sinh(2*tau)/tau^2, i.e. area / (pi*h^2)."""
    if tau <= 0.0:
        raise DomainError(f"r_of_tau requires tau > 0, got {tau!r}")
    return 2.0 / tau + math.sinh(2.0 * tau) / (tau * tau)


@functools.cache
def goldschmidt_constant() -> float:
    """Half-distance where the stable catenoid's area equals the disks' 2*pi.

    Cached after the first solve. Below the returned value the film beats the
    two flat disks; above it the disks win even though the catenoid persists
    up to h_star.
    """

    def excess(h: float) -> float:
        lower, _ = solve_branches(h)
        h2 = h * h
        return math.pi * h2 * r_of_tau(lower.tau) - TWO_PI

    h_star = critical_constants().h_star
    bracket = Bracket.from_function(excess, 0.1, h_star)
    h_g = find_root_bracketed(excess, bracket, tol_x=1e-13, tol_f=1e-11)
    lower, _ = solve_branches(h_g)
    if abs(math.pi * h_g * h_g * r_of_tau(lower.tau) - TWO_PI) > 1e-10:
        raise AssertionError("threshold solve did not reach the disk area")
    return h_g


@dataclass(frozen=True)
class ForceSample:
    """Ring force at one half-distance, with its closed-form slope."""

    h: float
    force: float
    dforce_dh: float


def force(h: float) -> ForceSample:
    """Attractive force F(h) = -4*pi*h/tau_1 on either ring, and dF/dh.

    From tau = h*cosh(tau), tau_1' = cosh(tau_1)/mu(tau_1) with
    mu(s) = 1 - s*tanh(s), so dF/dh = 4*pi*tanh(tau_1)/mu(tau_1), unbounded
    toward h_star where mu vanishes.

    Raises DomainError unless h > 0, and NoExtremalError from 1e-12 below
    h_star on (the degenerate catenoid's force is one-sided, not reported).
    """
    lower, upper = solve_branches(h)
    if lower.tau == upper.tau:
        raise NoExtremalError(h, critical_constants().h_star)
    tau = lower.tau
    value = -2.0 * TWO_PI * h / tau
    if value >= 0.0:
        raise AssertionError("ring force must be attractive (negative)")
    tanh = math.tanh(tau)
    slope = 2.0 * TWO_PI * tanh / (1.0 - tau * tanh)
    return ForceSample(h=h, force=value, dforce_dh=slope)
