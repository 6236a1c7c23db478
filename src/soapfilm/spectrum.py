"""Dirichlet string spectrum for the density 2/cosh^2(s) on [-tau, tau].

The stability of a catenoid reduces to the eigenvalue problem

    psi'' + lambda * (2/cosh^2 s) * psi = 0,   psi(-tau) = psi(tau) = 0,

whose first eigenvalue crosses 1 exactly at tau = tau_star. The primary
solver shoots from s = -tau with fixed-step RK4. Because the ODE is linear,
each RK4 step is a 2x2 matrix on (psi, psi'); a sweep builds all n step
matrices at once with numpy and forms their prefix products by recursive
doubling (log2 n levels of componentwise 2x2 products), which gives psi at
every node. Each eigenvalue is bracketed by the Sturm node count of those
values and refined on the end value psi(tau; lambda), with every lambda shot
at most once per `eigenvalues` call. dense_eigenvalues solves the same
problem as a finite-difference matrix eigenproblem and serves as an
independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DomainError,
    NotSupercriticalError,
    ZeroDenominatorError,
)
from .extremals import critical_constants
from .grids import TestFunction, composite_simpson, sampled_derivative
from .rootfind import Bracket, find_root_bracketed

__all__ = [
    "DENSITY_ID",
    "StringSpectrum",
    "shoot",
    "eigenvalues",
    "dense_eigenvalues",
    "rayleigh_quotient",
    "negative_direction",
]

DENSITY_ID = "2/cosh^2(s)"

_MIN_STEPS = 256
_DEFAULT_STEPS = 2048
_DOUBLING_CAP = 60
_BRACKET_CAP = 200


def _density(s):
    """The string density 2/cosh^2 s, elementwise; 0 where cosh^2 overflows."""
    with np.errstate(over="ignore"):
        return 2.0 / np.cosh(s) ** 2


def _check_problem(tau: float, n: int) -> None:
    if not 0.0 < tau < math.inf:
        raise DomainError(f"half-interval must be positive and finite, got {tau!r}")
    if n < _MIN_STEPS:
        raise DomainError(f"need at least {_MIN_STEPS} integration steps, got {n!r}")


def _sweep(tau: float, lam: float, n: int) -> np.ndarray:
    """psi at the n+1 nodes of [-tau, tau] for (psi, psi')(-tau) = (0, 1).

    An RK4 step of the linear ODE is a 2x2 matrix M_i acting on (psi, psi').
    All n matrices come from the RK4 stage formulas run on the basis vectors,
    vectorised over i; recursive doubling then turns them into the prefix
    products M_{i-1}...M_0, whose (0, 1) entries are psi at the nodes.
    """
    dt = 2.0 * tau / n
    # lam * rho sampled on the half-step grid: index 2i is node i, 2i+1 its midpoint
    q = lam * _density(-tau + 0.5 * dt * np.arange(2 * n + 1))
    q0, qh, q1 = q[0:-1:2], q[1::2], q[2::2]
    half = 0.5 * dt
    sixth = dt / 6.0

    def step(u, v):
        a1v = -q0 * u
        u2 = u + half * v
        v2 = v + half * a1v
        a2v = -qh * u2
        u3 = u + half * v2
        v3 = v + half * a2v
        a3v = -qh * u3
        u4 = u + dt * v3
        v4 = v + dt * a3v
        a4v = -q1 * u4
        return (
            u + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4),
            v + sixth * (a1v + 2.0 * a2v + 2.0 * a3v + a4v),
        )

    # prod[:, :, i] is M_i; column j is the step's image of basis vector j.
    prod = np.empty((2, 2, n))
    prod[0, 0], prod[1, 0] = step(1.0, 0.0)
    prod[0, 1], prod[1, 1] = step(0.0, 1.0)
    span = 1
    while span < n:
        # prod[:, :, i] <- prod[:, :, i] @ prod[:, :, i - span], written out
        # componentwise: np.matmul on an (n, 2, 2) stack is as slow as a loop.
        later, earlier = prod[:, :, span:], prod[:, :, :-span]
        prod[:, :, span:] = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
        span *= 2
    return np.concatenate(([0.0], prod[0, 1]))


def shoot(tau: float, lam: float, n: int = _DEFAULT_STEPS) -> Tuple[float, int]:
    """Integrate psi'' + lam*rho*psi = 0 from (psi, psi')(-tau) = (0, 1).

    Returns psi(tau) and the number of sign changes the solution makes after
    leaving the initial zero (the Sturm oscillation count used to bracket
    eigenvalues). Fixed-step RK4; deterministic for given (tau, lam, n).
    Raises DomainError unless 0 < tau < inf, lam is finite and n >= 256.
    """
    _check_problem(tau, n)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    psi = _sweep(tau, lam, n)
    # Exact zeros (and NaN) carry no sign and are skipped.
    positive = psi > 0.0
    signs = positive[positive | (psi < 0.0)]
    return float(psi[-1]), int(np.count_nonzero(signs[1:] != signs[:-1]))


@dataclass
class StringSpectrum:
    """First eigenvalues and normalized eigenfunctions of the string problem."""

    tau: float
    lambdas: np.ndarray
    eigenfunctions: List[TestFunction]
    density_id: str = DENSITY_ID

    def __post_init__(self) -> None:
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if np.any(self.lambdas <= 0.0):
            raise ValueError("string eigenvalues must be positive")
        if np.any(np.diff(self.lambdas) <= 0.0):
            raise ValueError("string eigenvalues must be strictly increasing")
        if len(self.eigenfunctions) != self.lambdas.size:
            raise ValueError("one eigenfunction per eigenvalue required")


def _bracket_by_nodes(
    shoot_once: Callable[[float], Tuple[float, int]], k: int, lam_hi: float
) -> Tuple[float, float]:
    """Shrink [lo, hi] until the node counts are exactly k-1 and k.

    The node count is nondecreasing in lambda and jumps by one at each
    eigenvalue, so bisection pins the k-th jump; the end values at such a
    bracket have opposite signs.
    """
    lo, hi = 0.0, lam_hi
    nodes_lo = 0
    nodes_hi = shoot_once(hi)[1]
    for _ in range(_BRACKET_CAP):
        if nodes_lo == k - 1 and nodes_hi == k:
            return lo, hi
        mid = 0.5 * (lo + hi)
        nodes_mid = shoot_once(mid)[1]
        if nodes_mid <= k - 1:
            lo, nodes_lo = mid, nodes_mid
        else:
            hi, nodes_hi = mid, nodes_mid
    raise ConvergenceFailureError(f"could not isolate eigenvalue {k} by node count")


def eigenvalues(tau: float, k_max: int, n: int = _DEFAULT_STEPS) -> StringSpectrum:
    """First k_max Dirichlet eigenvalues by shooting, with eigenfunctions.

    Brackets each lambda_k between node counts k-1 and k, then solves
    psi(tau; lambda) = 0 on the bracket. Eigenfunctions are RK4 trajectories
    normalized to unit weighted norm (weight 2/cosh^2 s) with psi'(-tau) > 0.

    Raises DomainError unless 0 < tau < inf, k_max >= 1 and n >= 256, and
    ConvergenceFailureError if no lambda with k_max nodes is found under a
    geometrically grown ceiling (that would be a bug, not a domain outcome).
    """
    _check_problem(tau, n)
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max!r}")

    # The bisections for successive k retrace each other's midpoints, and the
    # root solve starts from bracket ends already shot: shoot each lambda once.
    shot_at: Dict[float, Tuple[float, int]] = {}

    def shoot_once(lam: float) -> Tuple[float, int]:
        if lam not in shot_at:
            shot_at[lam] = shoot(tau, lam, n)
        return shot_at[lam]

    def end_value(lam: float) -> float:
        return shoot_once(lam)[0]

    lam_hi = 1.0
    for _ in range(_DOUBLING_CAP):
        if shoot_once(lam_hi)[1] >= k_max:
            break
        lam_hi *= 2.0
    else:
        raise ConvergenceFailureError(f"no lambda below {lam_hi} has {k_max} nodes")

    lams = []
    functions = []
    grid = np.linspace(-tau, tau, n + 1)
    weight = _density(grid)
    for k in range(1, k_max + 1):
        lo, hi = _bracket_by_nodes(shoot_once, k, lam_hi)
        bracket = Bracket(lo, hi, end_value(lo), end_value(hi))
        lam_k = find_root_bracketed(
            end_value, bracket, tol_x=1e-12 * max(1.0, hi), tol_f=1e-13
        )
        values = _sweep(tau, lam_k, n)
        values[-1] = 0.0
        norm = composite_simpson(weight * values * values, grid[1] - grid[0])
        values = values / math.sqrt(norm)
        lams.append(lam_k)
        functions.append(TestFunction(grid=grid, values=values))
    return StringSpectrum(tau=tau, lambdas=np.array(lams), eigenfunctions=functions)


def dense_eigenvalues(tau: float, k_max: int, m: int = 4096) -> np.ndarray:
    """Independent check: 3-point finite differences as a matrix eigenproblem.

    Discretizing -psi'' = lambda*rho*psi on m intervals and scaling by
    rho^(-1/2) gives a symmetric tridiagonal standard problem; the smallest
    k_max eigenvalues come from a direct tridiagonal solver. Apart from the
    density itself, no code is shared with the shooting route. Its bisection
    stops at an absolute 1e-13 (eps*||A|| grows like cosh^2 tau). Raises
    DomainError where it fails (tau ~200 to ~354) or 1/rho overflows (beyond).
    """
    # Deferred: scipy.linalg is most of the import time of the package, and
    # only this oracle needs it.
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    _check_problem(tau, m)
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max!r}")
    ds = 2.0 * tau / m
    s = np.linspace(-tau, tau, m + 1)[1:-1]
    rho = _density(s)
    with np.errstate(divide="ignore", over="ignore"):
        inv_sqrt = 1.0 / np.sqrt(rho)
        diag = 2.0 / (ds * ds * rho)
    if not np.all(np.isfinite(diag)):
        raise DomainError(f"1/rho overflows on the grid at tau={tau!r}")
    off = -inv_sqrt[:-1] * inv_sqrt[1:] / (ds * ds)
    try:
        return eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, k_max - 1), tol=1e-13
        )
    except LinAlgError as exc:
        raise DomainError(f"tridiagonal bisection fails at tau={tau!r}: {exc}") from None


def rayleigh_quotient(psi: TestFunction) -> float:
    """Quotient of integral psi'^2 over integral (2/cosh^2 s) psi^2.

    Its minimum over admissible directions is the first eigenvalue; on any
    sampled direction it bounds lambda_1 from above.
    """
    dpsi = sampled_derivative(psi.values, psi.spacing)
    numerator = composite_simpson(dpsi * dpsi, psi.spacing)
    weight = _density(psi.grid)
    denominator = composite_simpson(weight * psi.values * psi.values, psi.spacing)
    if denominator < 1e-14:
        raise ZeroDenominatorError("weighted norm of psi is numerically zero")
    return numerator / denominator


def negative_direction(tau: float, n: int = _DEFAULT_STEPS) -> TestFunction:
    """A direction with negative quadratic form, available once tau > tau_star.

    Returns the normalized ground eigenfunction psi_1(.; tau); its form value
    is lambda_1 - 1 by the normalization, negative exactly when tau exceeds
    tau_star. Raises DomainError unless 0 < tau < inf and n >= 256.
    """
    _check_problem(tau, n)
    tau_star = critical_constants().tau_star
    if tau <= tau_star + 1e-9:
        raise NotSupercriticalError(
            f"tau={tau!r} does not exceed tau_star={tau_star!r}; no negative direction exists"
        )
    psi = eigenvalues(tau, 1, n).eigenfunctions[0]
    dpsi = sampled_derivative(psi.values, psi.spacing)
    weight = _density(psi.grid)
    q_estimate = composite_simpson(dpsi * dpsi - weight * psi.values * psi.values, psi.spacing)
    if q_estimate >= 0.0:
        raise ConvergenceFailureError(
            f"ground direction at tau={tau!r} failed to certify negativity"
        )
    return psi
