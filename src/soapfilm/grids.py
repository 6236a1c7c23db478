"""Uniform-grid plumbing: sampled test functions, quadrature, derivatives.

A TestFunction is an immutable record (extremals._Record) of its grid and
values, checked whenever it is built.

All integrals in the library run composite Simpson on uniform grids and all
sampled derivatives are centered differences (second-order one-sided at the
endpoints), so that every quadrature-based quantity converges at a clean
O(n^-2) rate dominated by the differentiation error. Keeping both in one
place makes Richardson checks of that rate meaningful. The functions import
numpy themselves, so it loads on the first array call, not with the module.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, _count
from .extremals import _Record

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TestFunction", "composite_simpson", "sampled_derivative", "check_uniform_grid"]


def check_uniform_grid(grid: np.ndarray) -> float:
    """Validate a strictly increasing uniform grid; return its spacing.

    Raises DomainError unless the grid is one-dimensional with at least 3
    points, strictly increasing (so not NaN), uniform to within 1e-14 times
    its largest |node|, and its span grid[-1] - grid[0] is finite.
    """
    import numpy as np
    if grid.ndim != 1 or grid.size < 3:
        raise DomainError("grid must be one-dimensional with at least 3 points")
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(grid)
        dx = (grid[-1] - grid[0]) / (grid.size - 1)
    if not (np.all(steps > 0.0) and dx < math.inf):
        raise DomainError("grid must be strictly increasing with a finite span")
    scale = max(abs(grid[0]), abs(grid[-1]))
    if np.max(np.abs(steps - dx)) > 1e-14 * scale:
        raise DomainError("grid spacing is not uniform to within 1e-14")
    return float(dx)


def composite_simpson(values: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on a uniform grid.

    An odd interval count is handled with the 3/8 rule on the last three
    intervals, keeping the overall order. Requires at least 5 samples.
    Raises DomainError where the result is not finite: a sample or dx is
    NaN or infinite, or the sum overflows.
    """
    import numpy as np
    values = np.asarray(values, dtype=float)
    m = values.size - 1
    if m < 4:
        raise DomainError("composite Simpson needs at least 5 samples")
    w = np.ones(m + 1 - 3 * (m % 2))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    with np.errstate(all="ignore"):
        total = float(np.dot(w, values[: w.size])) * dx / 3.0
        if m % 2 == 1:
            total += 3.0 * dx / 8.0 * (values[-4] + 3.0 * values[-3] + 3.0 * values[-2] + values[-1])
    if not math.isfinite(total):
        raise DomainError("the integral of these samples is not a finite float")
    return total


def sampled_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Centered differences in the interior, 3-point one-sided at the ends.

    Raises DomainError unless there are at least 3 samples and
    0 < dx < inf, and where a difference quotient is not finite: a sample is
    NaN or infinite, a quotient overflows, or dx is so small that the end
    stencils' dx^2 underflows to 0.
    """
    import numpy as np
    values = np.asarray(values, dtype=float)
    if not (values.size >= 3 and 0.0 < dx < math.inf):
        raise DomainError(f"need at least 3 samples and 0 < dx < inf, got dx={dx!r}")
    with np.errstate(all="ignore"):
        slope = np.gradient(values, dx, edge_order=2)
    if not np.all(np.isfinite(slope)):
        raise DomainError("the derivative of these samples is not finite")
    return slope


class TestFunction(_Record, namedtuple("TestFunction", "grid values")):
    """A perturbation direction sampled on a symmetric uniform grid.

    Admissible directions vanish at both endpoints of [-a, a]; the endpoint
    samples must be exactly 0.0 so that boundary terms drop out of every
    integration by parts without residue. Raises DomainError unless there
    are at least 16 samples, all finite, on a grid that check_uniform_grid
    accepts and that is symmetric to within 1e-14 times its largest |node|.
    """

    __slots__ = ()
    # Not a test case despite the Test* name; keeps pytest collection quiet.
    __test__ = False

    def __new__(cls, grid: np.ndarray, values: np.ndarray) -> TestFunction:
        import numpy as np
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.shape != values.shape:
            raise DomainError("grid and values must have the same shape")
        if values.size < 16:
            raise DomainError(f"need at least 16 samples, got {values.size}")
        check_uniform_grid(grid)
        a = grid[-1]
        if abs(grid[0] + a) > 1e-14 * max(abs(grid[0]), abs(a)):
            raise DomainError("grid must span a symmetric interval [-a, a]")
        if values[0] != 0.0 or values[-1] != 0.0:
            raise DomainError("endpoint values must be exactly zero")
        if not np.all(np.isfinite(values)):
            raise DomainError("sampled values must be finite")
        return tuple.__new__(cls, (grid, values))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def halfwidth(self) -> float:
        return float(self.grid[-1])

    @property
    def spacing(self) -> float:
        return float((self.grid[-1] - self.grid[0]) / (self.n - 1))

    @classmethod
    def sample(cls, fn: Callable[[np.ndarray], np.ndarray], halfwidth: float, n: int) -> "TestFunction":
        """Sample a callable on [-halfwidth, halfwidth], clamping the ends to 0.

        The clamp removes the roundoff residue of functions that vanish at the
        endpoints only up to floating-point error. Raises DomainError unless
        0 < 2*halfwidth < inf and n is an integer in 16..2**20, and wherever
        the constructor does.
        """
        if not 0.0 < 2.0 * halfwidth < math.inf:
            raise DomainError(f"need 0 < 2*halfwidth < inf, got halfwidth={halfwidth!r}")
        n = _count("n", n, 16)
        import numpy as np
        grid = np.linspace(-halfwidth, halfwidth, n)
        values = np.asarray(fn(grid), dtype=float).copy()
        values[0] = 0.0
        values[-1] = 0.0
        return cls(grid, values)
