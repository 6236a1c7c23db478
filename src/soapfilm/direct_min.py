"""Direct minimization of the discretized area functional.

Independent confirmation route: instead of solving the Euler equation, relax
a sampled profile by projected Newton steps on the discrete area

    A(y) = 2*pi*dx * sum of ybar_i*sqrt(1 + m_i^2)

with per-segment slope m_i, w_i = sqrt(1 + m_i^2) and midpoint radius ybar_i,
endpoints pinned to 1 and interior values kept at or above a small floor.
The Hessian is tridiagonal, H = K + P: K is the Dirichlet Laplacian with
weights 2*pi*ybar_i/(dx*w_i^3), positive definite as sqrt(1 + m^2) is convex,
and P the diagonal 2*pi*((m/w)_(i-1) - (m/w)_i), which can be indefinite.
Below the critical half-distance the relaxation lands on the stable catenoid;
above it the waist hits the floor (the discrete stand-in for the two-disk
configuration) and the run reports a collapse with area just over 2*pi.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .config import TWO_PI
from .errors import DomainError
from .extremals import profile as catenoid_profile
from .extremals import solve_branches
from .grids import check_uniform_grid
from .spectrum import negative_direction

__all__ = [
    "Profile",
    "InitPreset",
    "Outcome",
    "MinimizeReport",
    "discrete_area",
    "discrete_gradient",
    "minimize",
]

# interior radii are kept at or above this floor
_FLOOR = 1e-6
# a converged run whose smallest interior radius is at most this has collapsed
_COLLAPSE_AT = 10.0 * _FLOOR
# the run ends once the projected gradient max-norm is at most this
_GRAD_TOL = TWO_PI * 1e-8
# sufficient-decrease factor of the Armijo test and the backtracking shrink
_ARMIJO = 1e-4
_SHRINK = 0.5
_MAX_ITER = 100_000

# 60 halvings shrink any starting step below machine precision; more would
# only produce null steps.
_BACKTRACK_CAP = 60

# size of the perturbation added to the unstable branch by the
# UPPER_PERTURBED preset
_KICK = 1e-3


@dataclass
class Profile:
    """A sampled film radius on a uniform grid over [-h, h].

    Endpoint radii are exactly 1 (the rings); interior radii stay at or above
    the descent floor so every Profile is a valid minimization state.
    """

    h: float
    grid: np.ndarray
    y: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.h < np.inf:
            raise DomainError(f"half-distance must be positive and finite, got {self.h!r}")
        self.grid = np.asarray(self.grid, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.grid.shape != self.y.shape:
            raise DomainError("grid and y must have the same shape")
        check_uniform_grid(self.grid)
        slack = 1e-12 * max(1.0, self.h)
        if abs(self.grid[0] + self.h) > slack or abs(self.grid[-1] - self.h) > slack:
            raise DomainError(f"grid must span [-{self.h}, {self.h}]")
        if self.y[0] != 1.0 or self.y[-1] != 1.0:
            raise DomainError("endpoint radii must be exactly 1")
        if np.any(self.y[1:-1] < _FLOOR):
            raise DomainError(f"interior radii must stay >= {_FLOOR}")
        self.n = int(self.y.size)

    @property
    def spacing(self) -> float:
        return float((self.grid[-1] - self.grid[0]) / (self.n - 1))


class InitPreset(enum.Enum):
    """Built-in starting profiles for minimize."""

    CYLINDER = "cylinder"
    LOWER_CATENOID = "lower_catenoid"
    UPPER_CATENOID = "upper_catenoid"
    UPPER_PERTURBED = "upper_perturbed"


class Outcome(enum.Enum):
    """How a minimization run ended."""

    CONVERGED = "Converged"
    COLLAPSED = "Collapsed"
    ITERATION_LIMIT = "IterationLimit"


@dataclass
class MinimizeReport:
    """Result of one descent run."""

    outcome: Outcome
    final_area: float
    iterations: int
    final_profile: Profile
    min_y: float


def _area_raw(y: np.ndarray, dx: float) -> float:
    m = np.diff(y) / dx
    ybar = 0.5 * (y[:-1] + y[1:])
    return TWO_PI * dx * float(np.sum(ybar * np.sqrt(1.0 + m * m)))


def _area_decrease(y: np.ndarray, y_new: np.ndarray, dx: float) -> float:
    """discrete_area(y) - discrete_area(y_new), evaluated without cancellation.

    Subtracting two totals resolves differences only down to one ulp of the
    area, which stalls the line search long before the gradient tolerance.
    Expanding the difference segment by segment in the (exactly computed)
    displacement keeps full relative precision however small the step.
    """
    dy = y - y_new
    m1 = np.diff(y) / dx
    m2 = np.diff(y_new) / dx
    w1 = np.sqrt(1.0 + m1 * m1)
    w2 = np.sqrt(1.0 + m2 * m2)
    ybar2 = 0.5 * (y_new[:-1] + y_new[1:])
    dybar = 0.5 * (dy[:-1] + dy[1:])
    dm = np.diff(dy) / dx
    terms = dybar * w1 + ybar2 * dm * (m1 + m2) / (w1 + w2)
    return TWO_PI * dx * float(np.sum(terms))


def _grad_raw(y: np.ndarray, dx: float) -> np.ndarray:
    m = np.diff(y) / dx
    w = np.sqrt(1.0 + m * m)
    ybar = 0.5 * (y[:-1] + y[1:])
    t = ybar * m / w
    g = np.zeros_like(y)
    g[1:-1] = TWO_PI * (0.5 * dx * (w[:-1] + w[1:]) + t[:-1] - t[1:])
    return g


def _ldl_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> Optional[List[float]]:
    """Solve a symmetric tridiagonal system by LDL^T; None unless it is positive definite."""
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    for i in range(len(d)):
        if i:
            lower = e[i - 1] / d[i - 1]
            d[i] -= lower * e[i - 1]
            x[i] -= lower * x[i - 1]
            e[i - 1] = lower
        if not d[i] > 0.0:
            return None
    x[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = x[i] / d[i] - e[i] * x[i + 1]
    return x


def _newton_step(y: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """Projected Newton direction: H^-1 g on the free radii, g/K on the active ones."""
    m = np.diff(y) / dx
    w = np.sqrt(1.0 + m * m)
    c = TWO_PI * 0.5 * (y[:-1] + y[1:]) / (dx * w**3)
    q = TWO_PI * m / w
    inner, gi = y[1:-1], g[1:-1]
    eps = float(np.max(np.abs(inner - np.maximum(inner - gi, _FLOOR))))
    active = (inner <= _FLOOR + eps) & (gi > 0.0)
    k_diag = c[:-1] + c[1:]
    off = np.where(active[:-1] | active[1:], 0.0, -c[1:-1])
    sol = _ldl_solve(k_diag + np.where(active, 0.0, q[:-1] - q[1:]), off, gi)
    if sol is None:
        sol = _ldl_solve(k_diag, off, gi)
    return np.array([0.0, *sol, 0.0])


def discrete_area(p: Profile) -> float:
    """Discretized area: segment slopes and midpoint radii, summed exactly.

    Agrees with the continuum area of a smooth profile to O(n^-2); a constant
    profile gives 4*pi*h exactly.
    """
    return _area_raw(p.y, p.spacing)


def discrete_gradient(p: Profile) -> np.ndarray:
    """Exact gradient of discrete_area in the interior radii; zero at the ends."""
    return _grad_raw(p.y, p.spacing)


def _preset_values(preset: InitPreset, h: float, grid: np.ndarray) -> np.ndarray:
    if preset is InitPreset.CYLINDER:
        return np.ones_like(grid)
    lower, upper = solve_branches(h)
    if preset is InitPreset.LOWER_CATENOID:
        y = np.asarray(catenoid_profile(lower, grid), dtype=float)
    else:
        y = np.asarray(catenoid_profile(upper, grid), dtype=float)
        if preset is InitPreset.UPPER_PERTURBED:
            psi = negative_direction(upper.tau)
            s = grid / upper.c
            eta = np.interp(s, psi.grid, psi.values) * np.cosh(s)
            eta[0] = 0.0
            eta[-1] = 0.0
            y = y + _KICK * eta
    y[0] = 1.0
    y[-1] = 1.0
    return y


def minimize(
    h: float,
    n: int,
    init: Union[Profile, InitPreset, str],
    *,
    history: Optional[List[float]] = None,
) -> MinimizeReport:
    """Projected Newton descent on the discretized area functional.

    Radii within one projected-gradient step of the floor that the gradient
    pushes down (Bertsekas' epsilon-active set) move by g/K, the rest by
    H^-1 g, or by K^-1 g where H has a non-positive pivot (the saddle, the
    collapse). The full step backtracks until the monotone sufficient-
    decrease test holds, projected onto [floor, inf) with the ends pinned
    to 1. The run ends when the projected gradient max-norm falls below
    grad_tol = 1e-8 * 2*pi: Collapsed if an interior radius ended at or below
    10*floor, Converged otherwise; IterationLimit if the budget ran out first.
    If history is given, the area after each accepted step is appended.
    """
    if not 0.0 < h < np.inf:
        raise DomainError(f"half-distance must be positive and finite, got {h!r}")
    if n < 64:
        raise DomainError(f"need at least 64 samples, got {n!r}")

    grid = np.linspace(-h, h, n)
    dx = float(grid[1] - grid[0])
    if isinstance(init, Profile):
        if abs(init.h - h) > 1e-12 * max(1.0, h) or init.n != n:
            raise DomainError("initial profile does not match the requested h and n")
        y = init.y.copy()
        grid = init.grid.copy()
        dx = init.spacing
    else:
        if isinstance(init, str):
            try:
                init = InitPreset(init.strip().lower())
            except ValueError:
                names = ", ".join(p.value for p in InitPreset)
                raise DomainError(f"unknown preset {init!r}; choose one of: {names}") from None
        y = _preset_values(init, h, grid)

    np.maximum(y[1:-1], _FLOOR, out=y[1:-1])
    area = _area_raw(y, dx)
    steps = 0
    outcome = Outcome.ITERATION_LIMIT

    for _ in range(_MAX_ITER):
        g = _grad_raw(y, dx)
        # floored radii pushed further down by the gradient are stationary
        # under the projection, so they drop out of the termination norm
        pg = g.copy()
        pinned = np.zeros_like(y, dtype=bool)
        pinned[1:-1] = (y[1:-1] <= _FLOOR) & (g[1:-1] > 0.0)
        pg[pinned] = 0.0
        if float(np.max(np.abs(pg))) <= _GRAD_TOL:
            if float(np.min(y[1:-1])) <= _COLLAPSE_AT:
                outcome = Outcome.COLLAPSED
            else:
                outcome = Outcome.CONVERGED
            break

        step = _newton_step(y, g, dx)
        alpha = 1.0
        accepted = False
        for _ in range(_BACKTRACK_CAP):
            y_new = y - alpha * step
            y_new[0] = 1.0
            y_new[-1] = 1.0
            np.maximum(y_new[1:-1], _FLOOR, out=y_new[1:-1])
            decrease = _area_decrease(y, y_new, dx)
            gap = float(g @ (y - y_new))
            if decrease >= _ARMIJO * gap:
                accepted = True
                break
            alpha *= _SHRINK
        if not accepted or gap == 0.0:
            break
        y = y_new
        area -= decrease
        steps += 1
        if history is not None:
            history.append(area)

    final = Profile(h=h, grid=grid, y=y)
    return MinimizeReport(
        outcome=outcome,
        final_area=_area_raw(y, dx),
        iterations=steps,
        final_profile=final,
        min_y=float(np.min(y)),
    )
