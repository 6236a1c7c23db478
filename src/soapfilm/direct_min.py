"""Direct minimization of the discretized area functional.

Independent confirmation route: instead of solving the Euler equation, relax
a sampled profile by projected Newton steps on the discrete area

    A(y) = 2*pi*dx * sum of ybar_i*sqrt(1 + m_i^2)

with per-segment slope m_i, w_i = sqrt(1 + m_i^2) and midpoint radius ybar_i,
endpoints pinned to 1 and interior radii projected onto a small floor;
the line search checks that each step descends (g.dy > 0). The Hessian is
tridiagonal, H = K + P: K is the Dirichlet Laplacian with weights
2*pi*ybar_i/(dx*w_i^3), positive definite as sqrt(1 + m^2) is convex, and P
the diagonal 2*pi*((m/w)_(i-1) - (m/w)_i), which can be indefinite. Below
the critical half-distance the relaxation lands on the stable catenoid;
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
from .variation import _ground_state

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

# UPPER_PERTURBED adds _KICK*psi(s)*cosh(s), s = x/c on the run's own nodes, to the upper
# branch; psi, the form Q's ground state at unit weighted norm, peaks near 0.62, so in
# waists c the kick grows like 1/c
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
        if not ((y[1:-1] >= _FLOOR) & (y[1:-1] < np.inf)).all():
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
    m = (y[1:] - y[:-1]) / dx
    return m, np.sqrt(1.0 + m * m), 0.5 * (y[:-1] + y[1:])


def _area(seg: Segments, dx: float) -> float:
    _, w, ybar = seg
    return math.tau * dx * float((ybar * w).sum())


def _area_decrease(dy: np.ndarray, seg: Segments, seg_new: Segments, dx: float) -> float:
    """_area(seg) - _area(seg_new) for radii y and y_new = y - dy, without cancellation.

    Subtracting two totals resolves differences only down to one ulp of the
    area, which stalls the line search long before the gradient tolerance.
    Expanding the difference segment by segment in the (exactly computed)
    displacement dy keeps full relative precision however small the step.
    """
    (m1, w1, _), (m2, w2, ybar2) = seg, seg_new
    dybar = 0.5 * (dy[:-1] + dy[1:])
    dm = (dy[1:] - dy[:-1]) / dx
    terms = dybar * w1 + ybar2 * dm * ((m1 + m2) / (w1 + w2))
    return math.tau * dx * float(terms.sum())


def _gradient(seg: Segments, dx: float) -> np.ndarray:
    import numpy as np
    m, w, ybar = seg
    t = ybar * m / w
    g = np.zeros(m.size + 1)
    g[1:-1] = math.tau * (0.5 * dx * (w[:-1] + w[1:]) + t[:-1] - t[1:])
    return g


def _ldl_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> Optional[List[float]]:
    """Solve a symmetric tridiagonal system by LDL^T; None unless it is positive definite."""
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    piv, last = d[0], x[0]
    if not piv > 0.0:
        return None
    for i in range(1, len(d)):
        upper = e[i - 1]
        lower = upper / piv
        d[i] = piv = d[i] - lower * upper
        if not piv > 0.0:
            return None
        x[i] = last = x[i] - lower * last
        e[i - 1] = lower
    x[-1] = last = last / piv
    for i in range(len(d) - 2, -1, -1):
        x[i] = last = x[i] / d[i] - e[i] * last
    return x


def _laplacian_solve(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """K^-1 g for the Dirichlet Laplacian K of a chain with conductances c, in closed form.

    K^-1 is the chain's Green's function: with resistances r = 1/c, R_i the
    resistance from interior node i to the left ring and S_i that to the
    right ring, (K^-1)_ij = R_min(i,j)*S_max(i,j)/(R_i + S_i). R and S are
    sums of positive terms, so nothing cancels however far the weights
    spread. Elimination forms the pivot c_i + c_(i+1) - c_i^2/d_(i-1)
    instead, which cancels to a non-positive pivot once the weights span
    about 16 decades (a steep catenoid at small h). r and g are scaled,
    exactly, by powers of two at or above their largest entries, so no
    product overflows; a step past the float range is +-inf, then floored.
    """
    import numpy as np
    r = 1.0 / c
    er, eg = math.frexp(r.max())[1], math.frexp(np.abs(g).max())[1]
    r, g = np.ldexp(r, -er), np.ldexp(g, -eg)
    left = np.cumsum(r)[:-1]
    right = np.cumsum(r[::-1])[-2::-1]
    x = right * np.cumsum(left * g)
    x[:-1] += left[:-1] * np.cumsum((right * g)[:0:-1])[::-1]
    with np.errstate(over="ignore"):
        return np.ldexp(x / (left + right), er + eg)


def _newton_step(seg: Segments, g: np.ndarray, dx: float) -> np.ndarray:
    """Newton direction on every interior radius: H^-1 g, or K^-1 g past a non-positive pivot.

    Either matrix is positive definite where it is used, so g.d > 0. The
    projection onto the floor can clip that away; the line search takes no
    trial point with g.dy <= 0, so every accepted step descends.
    """
    import numpy as np
    m, w, ybar = seg
    # ybar >= |m|*dx/2, so c is positive and finite wherever w is
    c = math.tau * ybar / (dx * w) / (w * w)
    q = math.tau * m / w
    sol = _ldl_solve(c[:-1] + c[1:] + (q[:-1] - q[1:]), -c[1:-1], g[1:-1])
    step = np.zeros_like(g)
    step[1:-1] = _laplacian_solve(c, g[1:-1]) if sol is None else sol
    return step


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
    y = catenoid_profile(lower if preset is InitPreset.LOWER_CATENOID else upper, grid)
    if preset is InitPreset.UPPER_PERTURBED:
        s = grid / upper.c
        y += _KICK * _ground_state(upper.tau, s) * np.cosh(s)
    y[0] = y[-1] = 1.0
    return y


def minimize(h: float, n: int, init: Union[Profile, InitPreset, str]) -> MinimizeReport:
    """Projected Newton descent on the discretized area functional.

    P projects radii onto [floor, inf) with the ends pinned to 1, and eps =
    max|y - P(y - g)| is the projected gradient's max-norm. Every interior
    radius moves by H^-1 g, or by K^-1 g where H has a non-positive pivot (the
    saddle, the collapse); K^-1 is the chain's Green's function, formed from
    sums of positive resistances, so it cancels nowhere. The full step,
    projected by P, backtracks until the point descends, g.dy > 0, and the
    monotone sufficient-decrease test holds. The run ends once eps <=
    grad_tol = 1e-8 * 2*pi: Collapsed if an interior radius ended at or
    below 10*floor, Converged otherwise; IterationLimit if the budget of
    100 000 iterations, or a step's 60 halvings, ran out first. final_area is
    discrete_area(final_profile), and a collapse's is that of the two end
    cones, 2*pi*sqrt(1 + dx^2) for the grid spacing dx = 2h/(n-1).

    Raises DomainError unless 0 < 2h < inf, n is an integer in 64..2**20 and
    1e-7 <= dx <= 1, whatever the starting profile: on a finer grid the
    rounding of the radii alone exceeds the gradient tolerance, and on a
    grid coarser than the ring radius the end cones are no stand-in for the
    disks. It raises DomainError too where init is neither a Profile nor an
    InitPreset member or value, and where an explicit start's discrete area
    overflows.
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
        discrete_area(init)
        grid, y = init.grid.copy(), init.y.copy()
    else:
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
        # the projected gradient y - P(y - g)
        inner = y[1:-1]
        eps = float(np.abs(inner - np.maximum(inner - g[1:-1], _FLOOR)).max())
        if eps <= _GRAD_TOL:
            outcome = Outcome.COLLAPSED if inner.min() <= _COLLAPSE_AT else Outcome.CONVERGED
            break

        step = _newton_step(seg, g, dx)
        alpha = 1.0
        for _ in range(_BACKTRACK_CAP):
            # step is 0 at both ends, which stay exactly 1
            y_new = y - alpha * step
            np.maximum(y_new[1:-1], _FLOOR, out=y_new[1:-1])
            dy = y - y_new
            seg_new = _segments(y_new, dx)
            gap = float(g @ dy)
            if gap > 0.0 and _area_decrease(dy, seg, seg_new, dx) >= _ARMIJO * gap:
                break
            alpha *= _SHRINK
        else:
            break
        y, seg = y_new, seg_new
        steps += 1

    return MinimizeReport(
        outcome=outcome,
        final_area=_area(seg, dx),
        iterations=steps,
        final_profile=Profile(h=h, grid=grid, y=y),
        min_y=float(y.min()),
    )
