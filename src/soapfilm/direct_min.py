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
configuration) and the run reports a collapse. Its area is that of the two
end cones, 2*pi*sqrt(1 + dx^2) for grid spacing dx, just over the disks'
2*pi on a fine grid. The functions that use arrays import numpy themselves,
so it loads on the first array call, not with the module.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from .errors import DomainError, _count
from .extremals import profile as catenoid_profile
from .extremals import _Record, solve_branches
from .grids import check_uniform_grid
from .spectrum import negative_direction

if TYPE_CHECKING:
    import numpy as np

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
_GRAD_TOL = math.tau * 1e-8
# smallest grid spacing dx = 2h/(n-1): a radius near 1 rounds by up to
# 1.1e-16, which moves a gradient entry by up to 2*pi*4.4e-16/dx, past
# _GRAD_TOL from dx = 4.4e-8 down, so only an exactly flat profile could
# converge there; further down, slopes of order 1/dx overflow
_DX_MIN = 1e-7
# largest grid spacing, the ring radius: beyond it a collapse's two end
# cones, of area 2*pi*sqrt(1 + dx^2), have over sqrt(2) times the disks' area
_DX_MAX = 1.0
# sufficient-decrease factor of the Armijo test and the backtracking shrink
_ARMIJO = 1e-4
_SHRINK = 0.5
_MAX_ITER = 100_000

# 60 halvings shrink any starting step below machine precision; more would
# only produce null steps.
_BACKTRACK_CAP = 60

# slopes m, stretches w and midpoint radii ybar of the n - 1 segments
Segments = Tuple["np.ndarray", "np.ndarray", "np.ndarray"]

# size of the perturbation added to the unstable branch by the
# UPPER_PERTURBED preset
_KICK = 1e-3


class Profile(_Record, namedtuple("Profile", "h grid y")):
    """A sampled film radius on a uniform grid over [-h, h].

    Endpoint radii are exactly 1 (the rings); interior radii stay at or above
    the descent floor so every Profile is a valid minimization state.
    """

    __slots__ = ()

    def __new__(cls, h: float, grid: np.ndarray, y: np.ndarray) -> Profile:
        if not 0.0 < h < math.inf:
            raise DomainError(f"half-distance must be positive and finite, got {h!r}")
        import numpy as np
        grid = np.asarray(grid, dtype=float)
        y = np.asarray(y, dtype=float)
        if grid.shape != y.shape:
            raise DomainError("grid and y must have the same shape")
        check_uniform_grid(grid)
        slack = 1e-12 * h
        if abs(grid[0] + h) > slack or abs(grid[-1] - h) > slack:
            raise DomainError(f"grid must span [-{h}, {h}]")
        if y[0] != 1.0 or y[-1] != 1.0:
            raise DomainError("endpoint radii must be exactly 1")
        if not np.all((y[1:-1] >= _FLOOR) & (y[1:-1] < np.inf)):
            raise DomainError(f"interior radii must be finite and >= {_FLOOR}")
        return tuple.__new__(cls, (h, grid, y))

    @property
    def n(self) -> int:
        return self.y.size

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


class MinimizeReport(
    _Record, namedtuple("MinimizeReport", "outcome final_area iterations final_profile min_y")
):
    """Result of one descent run."""

    __slots__ = ()


def _segments(y: np.ndarray, dx: float) -> Segments:
    """Per-segment slope m, stretch w = sqrt(1 + m^2) and midpoint radius ybar."""
    import numpy as np
    m = np.diff(y) / dx
    return m, np.sqrt(1.0 + m * m), 0.5 * (y[:-1] + y[1:])


def _area(seg: Segments, dx: float) -> float:
    import numpy as np
    _, w, ybar = seg
    return math.tau * dx * float(np.sum(ybar * w))


def _area_decrease(dy: np.ndarray, seg: Segments, seg_new: Segments, dx: float) -> float:
    """_area(seg) - _area(seg_new) for radii y and y_new = y - dy, without cancellation.

    Subtracting two totals resolves differences only down to one ulp of the
    area, which stalls the line search long before the gradient tolerance.
    Expanding the difference segment by segment in the (exactly computed)
    displacement dy keeps full relative precision however small the step.
    """
    import numpy as np
    (m1, w1, _), (m2, w2, ybar2) = seg, seg_new
    dybar = 0.5 * (dy[:-1] + dy[1:])
    dm = np.diff(dy) / dx
    terms = dybar * w1 + ybar2 * dm * (m1 + m2) / (w1 + w2)
    return math.tau * dx * float(np.sum(terms))


def _gradient(seg: Segments, dx: float) -> np.ndarray:
    import numpy as np
    m, w, ybar = seg
    t = ybar * m / w
    g = np.zeros(m.size + 1)
    g[1:-1] = math.tau * (0.5 * dx * (w[:-1] + w[1:]) + t[:-1] - t[1:])
    return g


def _ldl_solve(
    diag: np.ndarray, off: np.ndarray, rhs: np.ndarray, pivots: Optional[List[float]] = None
) -> Optional[List[float]]:
    """Solve a symmetric tridiagonal system by LDL^T; None unless it is positive definite.

    Given pivots, the factorization takes them instead of eliminating diag.
    """
    d, e, x = diag.tolist() if pivots is None else pivots, off.tolist(), rhs.tolist()
    piv, last = d[0], x[0]
    if not piv > 0.0:
        return None
    for i in range(1, len(d)):
        upper = e[i - 1]
        lower = upper / piv
        if pivots is None:
            d[i] = d[i] - lower * upper
        piv = d[i]
        if not piv > 0.0:
            return None
        x[i] = last = x[i] - lower * last
        e[i - 1] = lower
    x[-1] = last = last / piv
    for i in range(len(d) - 2, -1, -1):
        x[i] = last = x[i] / d[i] - e[i] * last
    return x


def _newton_step(y: np.ndarray, seg: Segments, g: np.ndarray, eps: float, dx: float) -> np.ndarray:
    """Projected Newton direction: H^-1 g on the free radii, g/K on the active ones.

    The active radii are those within eps of the floor that g pushes down.
    """
    import numpy as np
    m, w, ybar = seg
    c = math.tau * ybar / (dx * w**3)
    q = math.tau * m / w
    gi = g[1:-1]
    active = (y[1:-1] <= _FLOOR + eps) & (gi > 0.0)
    k_diag = c[:-1] + c[1:]
    off = np.where(active[:-1] | active[1:], 0.0, -c[1:-1])
    sol = _ldl_solve(k_diag + np.where(active, 0.0, q[:-1] - q[1:]), off, gi)
    if sol is None:
        sol = _ldl_solve(k_diag, off, gi, _laplacian_pivots(c, off))
    return np.array([0.0, *sol, 0.0])


def _laplacian_pivots(c: np.ndarray, off: np.ndarray) -> List[float]:
    """The LDL^T pivots of K from positive terms only.

    Row i's pivot is c_(i+1) plus the series conductance e_i of the segments
    on its left: e_i = c_i*e_(i-1)/(c_i + e_(i-1)), or c_i where off cuts the
    coupling. Elimination subtracts c_i^2/d_(i-1) from c_i + c_(i+1) instead,
    which cancels to a non-positive pivot once the weights span about 16
    decades (a steep catenoid at small h).
    """
    c, cut = c.tolist(), (off == 0.0).tolist()
    e = c[0]
    pivots = [c[1] + e]
    for i in range(1, len(c) - 1):
        e = c[i] if cut[i - 1] else c[i] * e / (c[i] + e)
        pivots.append(c[i + 1] + e)
    return pivots


def discrete_area(p: Profile) -> float:
    """Discretized area: segment slopes and midpoint radii, summed exactly.

    Agrees with the continuum area of a smooth profile to O(n^-2); a constant
    profile gives 4*pi*h exactly. Raises DomainError where the area, or a
    product formed on the way to it, overflows the float range.
    """
    import numpy as np
    dx = p.spacing
    with np.errstate(over="ignore"):
        area = _area(_segments(p.y, dx), dx)
    if not math.isfinite(area):
        raise DomainError("the discrete area overflows the float range")
    return area


def discrete_gradient(p: Profile) -> np.ndarray:
    """Exact gradient of discrete_area in the interior radii; zero at the ends.

    Raises DomainError where an entry, or a product formed on the way to it,
    overflows the float range.
    """
    import numpy as np
    dx = p.spacing
    with np.errstate(over="ignore", invalid="ignore"):
        g = _gradient(_segments(p.y, dx), dx)
    if not np.all(np.isfinite(g)):
        raise DomainError("the discrete gradient overflows the float range")
    return g


def _preset_values(preset: InitPreset, h: float, grid: np.ndarray) -> np.ndarray:
    import numpy as np
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


def minimize(h: float, n: int, init: Union[Profile, InitPreset, str]) -> MinimizeReport:
    """Projected Newton descent on the discretized area functional.

    P projects radii onto [floor, inf) with the ends pinned to 1, and
    eps = max|y - P(y - g)| is the projected gradient's max-norm. Radii
    within eps of the floor that the gradient pushes down (Bertsekas'
    epsilon-active set) move by g/K, the rest by H^-1 g, or by K^-1 g where
    H has a non-positive pivot (the saddle, the collapse); K's pivots are
    formed from positive terms only. The full step, projected by P,
    backtracks until the monotone sufficient-decrease test holds. The run
    ends once eps <= grad_tol = 1e-8 * 2*pi: Collapsed if an interior radius
    ended at or below 10*floor, Converged otherwise; IterationLimit if the
    budget ran out first or the line search stalled. final_area is
    discrete_area(final_profile), and a collapse's is that of the two end
    cones, 2*pi*sqrt(1 + dx^2) for the grid spacing dx = 2h/(n-1).

    Raises DomainError unless 0 < 2h < inf, n is an integer in 64..2**20 and
    1e-7 <= dx <= 1, whatever the starting profile: on a finer grid the
    rounding of the radii alone exceeds the gradient tolerance, and on a
    grid coarser than the ring radius the end cones are no stand-in for the
    disks.
    """
    if not 0.0 < 2.0 * h < math.inf:
        raise DomainError(f"half-distance must be positive with 2*h finite, got {h!r}")
    n = _count("n", n, 64)
    if not _DX_MIN <= 2.0 * h / (n - 1) <= _DX_MAX:
        raise DomainError(
            f"grid spacing 2h/(n-1) must be in [{_DX_MIN!r}, {_DX_MAX!r}]; h={h!r}, n={n!r}"
        )
    import numpy as np

    if isinstance(init, Profile):
        if abs(init.h - h) > 1e-12 * h or init.n != n:
            raise DomainError("initial profile does not match the requested h and n")
        grid, y = init.grid.copy(), init.y.copy()
    else:
        if isinstance(init, str):
            try:
                init = InitPreset(init)
            except ValueError:
                names = ", ".join(p.value for p in InitPreset)
                raise DomainError(f"unknown preset {init!r}; choose one of: {names}") from None
        grid = np.linspace(-h, h, n)
        y = _preset_values(init, h, grid)
    dx = check_uniform_grid(grid)

    np.maximum(y[1:-1], _FLOOR, out=y[1:-1])
    seg = _segments(y, dx)
    steps = 0
    outcome = Outcome.ITERATION_LIMIT

    for _ in range(_MAX_ITER):
        g = _gradient(seg, dx)
        # the projected gradient y - P(y - g); floored radii pushed further
        # down by g are stationary under the projection P
        inner = y[1:-1]
        eps = float(np.max(np.abs(inner - np.maximum(inner - g[1:-1], _FLOOR))))
        if eps <= _GRAD_TOL:
            outcome = Outcome.COLLAPSED if np.min(inner) <= _COLLAPSE_AT else Outcome.CONVERGED
            break

        step = _newton_step(y, seg, g, eps, dx)
        alpha = 1.0
        for _ in range(_BACKTRACK_CAP):
            y_new = y - alpha * step
            y_new[0] = 1.0
            y_new[-1] = 1.0
            np.maximum(y_new[1:-1], _FLOOR, out=y_new[1:-1])
            dy = y - y_new
            seg_new = _segments(y_new, dx)
            gap = float(g @ dy)
            if _area_decrease(dy, seg, seg_new, dx) >= _ARMIJO * gap:
                break
            alpha *= _SHRINK
        else:
            break
        if gap == 0.0:
            break
        y, seg = y_new, seg_new
        steps += 1

    return MinimizeReport(
        outcome=outcome,
        final_area=_area(seg, dx),
        iterations=steps,
        final_profile=Profile(h=h, grid=grid, y=y),
        min_y=float(np.min(y)),
    )
