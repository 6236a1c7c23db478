"""Dirichlet string spectrum for the density 2/cosh^2(s) on [-tau, tau].

The stability of a catenoid reduces to the eigenvalue problem

    psi'' + lambda * (2/cosh^2 s) * psi = 0,   psi(-tau) = psi(tau) = 0,

whose first eigenvalue crosses 1 exactly at tau = tau_star. The primary
solver is fixed-step RK4 with dt = 2*tau/n. Because the ODE is linear, each
RK4 step is a 2x2 matrix on (psi, dt*psi'), whose entries are quadratics in
mu = lambda*dt^2 with coefficients from the density at the step's node,
midpoint and next node. The density is even, and the mirror image of a step
is R*adj(M)*R with R = diag(1, -1), so only the ceil(n/2) steps over [0, tau]
are ever formed: their product Q carries the even solution, started from
(psi, dt*psi') = (1, 0) at s = 0, in its first column and the odd one, from
(0, 1), in its second. The shot from s = -tau is then rebuilt exactly: it
ends at psi(tau)/dt = 2*q00*q01 (for odd n the centre step over
[-dt/2, dt/2] sits between the halves). One Horner pass in mu builds the
step matrices, and pairwise products reduce them in O(n) work to at most 32
blocks, whose left-to-right fold gives psi at the block boundaries and at
tau. Each eigenvalue is bracketed by the Sturm node count. Zeros of psi lie
at least pi/sqrt(2*lambda) apart; where that is four blocks or more, the
boundaries give the count, and only beyond does a sweep form every prefix
product by recursive doubling (log2(n/2) levels of batched 2x2 products) for
psi at every node. The root
solve on the bracket reads only psi(tau; lambda). Each eigenvalues call
computes the coefficients once and shoots every lambda at most once; an
eigenfunction costs one sweep, taken only when asked for. Its eigenvalues are
the RK4 end value's roots to about 1e-14 relative (k <= 5, tau in
[0.2, 300]), and the exact ones to RK4's O(dt^4) error (see eigenvalues).
dense_eigenvalues solves the same problem as a finite-difference matrix
eigenproblem and serves as an independent check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .errors import ConvergenceFailureError, DomainError
from .extremals import critical_constants
from .grids import TestFunction, composite_simpson
from .rootfind import find_root_bracketed
from .variation import _density, q_form

__all__ = [
    "StringSpectrum",
    "shoot",
    "eigenvalues",
    "dense_eigenvalues",
    "negative_direction",
]

_MIN_STEPS = 256
_DEFAULT_STEPS = 2048
_BRACKET_CAP = 200
# intervals of dense_eigenvalues' finite-difference matrix
_DENSE_INTERVALS = 4096


def _check_problem(tau: float, n: int) -> float:
    """Validate the interval and the step count; return the step dt = 2*tau/n."""
    if not 0.0 < 2.0 * tau < math.inf:
        raise DomainError(f"half-interval must be positive with 2*tau finite, got {tau!r}")
    if n < _MIN_STEPS:
        raise DomainError(f"need at least {_MIN_STEPS} integration steps, got {n!r}")
    dt = 2.0 * tau / n
    if dt < sys.float_info.min:
        raise DomainError(f"step 2*tau/n = {dt!r} is subnormal at tau={tau!r}")
    return dt


def _samples(tau: float, dt: float, n: int) -> np.ndarray:
    """rho on the half-step grid of [0, tau], from s = -dt/2 for odd n.

    Index 2j is a node, 2j+1 its midpoint; the ceil(n/2) steps are those of
    the full grid's nodes -tau + i*dt that end in [0, tau]. For odd n the
    first is the centre step over [-dt/2, dt/2].
    """
    return _density(0.5 * dt * np.arange(-(n % 2), n + 1))


def _coefficients(rho: np.ndarray) -> np.ndarray:
    """[a, b] such that the RK4 step matrices are [[1, 1], [0, 1]] + mu*(a + mu*b).

    RK4 run on the two basis vectors of (psi, dt*psi') makes each entry a
    quadratic in mu = lam*dt^2, with the density at the step's node (r0),
    midpoint (rh) and next node (r1); the step index is the last axis.
    Swapping r0 and r1 swaps the diagonal entries: the mirror image of a step
    M is R*adj(M)*R with R = diag(1, -1).
    """
    r0, rh, r1 = rho[0:-1:2], rho[1::2], rho[2::2]
    a = np.array([[r0 + 2.0 * rh, rh], [r0 + 4.0 * rh + r1, 2.0 * rh + r1]]) / -6.0
    b = [[r0 * rh / 24.0, 0.0 * rh], [rh * (r0 + r1) / 12.0, rh * r1 / 24.0]]
    return np.array([a, b])


def _steps(ab: np.ndarray, mu: float) -> np.ndarray:
    """The step matrices, as [:, :, i], for mu = lam*dt^2: one Horner pass."""
    m = ab[1] * mu
    m += ab[0]
    m *= mu
    m[0] += 1.0  # the (0, 0) and (0, 1) entries
    m[1, 1] += 1.0
    return m


def _centre(steps: np.ndarray, odd: int, q00: float, q01: float) -> Tuple[float, float]:
    """C*(q01, q00) for the centre step C = steps[:, :, 0] (the identity for even n).

    (q01, q00) is the state at -x_0 of the shot from -tau, so this is its
    state at x_0; x_0 = 0 for even n and dt/2 for odd n.
    """
    if not odd:
        return q01, q00
    (c00, c01), (c10, c11) = steps[:, :, 0].tolist()
    return c00 * q01 + c01 * q00, c10 * q01 + c11 * q00


def _rebuild(
    steps: np.ndarray, odd: int, first: np.ndarray, second: np.ndarray, det: np.ndarray
) -> np.ndarray:
    """psi/dt of the shot from -tau at -x_j and x_j, from Q_j's first row and det.

    first[j], second[j] and det[j] belong to the prefix product Q_j of the
    steps over [x_0, x_j], with Q_0 = I. With (q00, q01) the first row of the
    last product Q, the left half's product is R*adj(Q)*R, so the shot reaches
    x_0 in the state v = C*(q01, q00). Hence psi/dt is Q_j[0]*v at x_j and
    (q01*Q_j[0, 0] - q00*Q_j[0, 1])/det Q_j at -x_j; x_0 = 0 appears once.
    """
    q00, q01 = float(first[-1]), float(second[-1])
    v0, v1 = _centre(steps, odd, q00, q01)
    left = (q01 * first - q00 * second) / det
    return np.concatenate((left[1 - odd :][::-1], v0 * first + v1 * second))


def _sweep(steps: np.ndarray, odd: int) -> np.ndarray:
    """psi/dt at the n+1 nodes for (psi, dt*psi')(-tau) = (0, 1).

    steps holds the ceil(n/2) step matrices of _samples' grid. Recursive
    doubling turns those over [x_0, tau] into the prefix products
    Q_j = M_{j-1}...M_0 in place. Their first rows hold psi/dt at x_j for the
    solutions started from (1, 0) and (0, 1) at x_0 (the even and the odd
    solution when n is even); _rebuild gives the shot at every node.
    """
    m = steps[:, :, odd:]
    det = np.cumprod(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    span = 1
    while span < m.shape[2]:
        # m[:, :, i] <- m[:, :, i] @ m[:, :, i - span] for every i >= span
        m[:, :, span:] = np.einsum("ijk,jlk->ilk", m[:, :, span:], m[:, :, :-span])
        span *= 2
    first = np.concatenate(([1.0], m[0, 0]))
    second = np.concatenate(([0.0], m[0, 1]))
    return _rebuild(steps, odd, first, second, np.concatenate(([1.0], det)))


_Block = Tuple[float, float, float, float]


def _blocks(steps: np.ndarray, odd: int) -> List[_Block]:
    """The steps over [x_0, tau] reduced by pairwise products to at most 32 blocks.

    Each level multiplies neighbours and halves the stack, in O(n) work in
    all; on an odd level the last matrix is first folded into the one before
    it, so the last block is the longest (see _longest_block). Below 32
    matrices a numpy call costs more than its work, so the blocks are
    returned as float entries (a00, a01, a10, a11), first block first.
    """
    m = steps[:, :, odd:]
    while m.shape[2] > 32:
        if m.shape[2] % 2:
            m[:, :, -2] = m[:, :, -1] @ m[:, :, -2]
            m = m[:, :, :-1]
        m = np.einsum("ijk,jlk->ilk", m[:, :, 1::2], m[:, :, 0::2])
    return list(zip(*m.reshape(4, -1).tolist()))


def _longest_block(count: int) -> int:
    """The number of steps in the last, longest, of _blocks' products of count steps."""
    longest, width = 1, 1
    while count > 32:
        longest += width * (1 + count % 2)
        count //= 2
        width *= 2
    return longest


def _fold_end(blocks: List[_Block], steps: np.ndarray, odd: int) -> float:
    """psi(tau)/dt = (q00, q01)*C*(q01, q00), the first row of Q folded from the last block."""
    q00, q01 = 1.0, 0.0
    for a00, a01, a10, a11 in reversed(blocks):
        q00, q01 = q00 * a00 + q01 * a10, q00 * a01 + q01 * a11
    v0, v1 = _centre(steps, odd, q00, q01)
    return q00 * v0 + q01 * v1


def _end(steps: np.ndarray, odd: int) -> float:
    """psi(tau)/dt alone, from _blocks' pass: O(n) work."""
    return _fold_end(_blocks(steps, odd), steps, odd)


def _boundary_shot(steps: np.ndarray, odd: int) -> np.ndarray:
    """psi/dt of the shot at the block boundaries alone, from one pass of _blocks.

    Folding the blocks left to right gives the prefix products at their
    boundaries, from which _rebuild forms the shot; its last value is set
    to the one _end returns, so a cached end value is _end's.
    """
    blocks = _blocks(steps, odd)
    first, second, det = [1.0], [0.0], [1.0]
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
    for a00, a01, a10, a11 in blocks:
        p00, p01, p10, p11 = (
            a00 * p00 + a01 * p10,
            a00 * p01 + a01 * p11,
            a10 * p00 + a11 * p10,
            a10 * p01 + a11 * p11,
        )
        first.append(p00)
        second.append(p01)
        det.append(det[-1] * (a00 * a11 - a01 * a10))
    psi = _rebuild(steps, odd, np.array(first), np.array(second), np.array(det))
    psi[-1] = _fold_end(blocks, steps, odd)
    return psi


def _boundaries_count_nodes(lam: float, dt: float, n: int) -> bool:
    """Whether the block boundaries alone give shoot's node count at lam.

    rho <= 2, so by Sturm comparison the zeros of psi lie at least
    pi/sqrt(2*lam) apart. A block at most a quarter of that long holds at most
    one sign change, even with RK4's phase error (lam*dt^2 <= pi^2/32 there),
    so the count over its two boundaries is the count over all its nodes.
    """
    length = _longest_block(n // 2) * dt
    return 2.0 * lam * length * length <= (math.pi / 4.0) ** 2


def shoot(tau: float, lam: float, n: int = _DEFAULT_STEPS) -> Tuple[float, int]:
    """Integrate psi'' + lam*rho*psi = 0 from (psi, psi')(-tau) = (0, 1).

    Returns psi(tau) and the number of sign changes the solution makes at the
    n+1 nodes after leaving the initial zero (the Sturm oscillation count
    used to bracket eigenvalues). Fixed-step RK4, stepped over [0, tau] only
    and rebuilt on [-tau, tau] from the two parity solutions; deterministic
    for given (tau, lam, n). Where the zeros of psi lie at least four blocks
    of the pairwise product apart (see _boundaries_count_nodes), the count is
    read at the block boundaries of one O(n) pass (65 nodes at the default
    n); otherwise a full prefix sweep gives psi at every node.
    Raises DomainError unless 0 < 2*tau < inf, dt = 2*tau/n is a normal
    float, lam is finite and n >= 256, and where psi overflows (lam far
    beyond RK4's stability bound 4/dt^2, or far below 0).
    """
    dt = _check_problem(tau, n)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    return _shoot(_coefficients(_samples(tau, dt, n)), lam, tau, dt, n)


def _shoot(ab: np.ndarray, lam: float, tau: float, dt: float, n: int) -> Tuple[float, int]:
    """shoot(tau, lam, n) from the coefficients ab of the step matrices."""
    nodes = _boundary_shot if _boundaries_count_nodes(lam, dt, n) else _sweep
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        psi = nodes(_steps(ab, lam * dt * dt), n % 2)
    if not np.all(np.isfinite(psi)):
        raise DomainError(f"psi overflows at lambda={lam!r}, tau={tau!r}, n={n!r}")
    if lam <= 0.0:
        # Every step matrix is then entrywise non-negative, so psi > 0 after
        # the first step. The rebuilt left half, a difference of the two
        # parity solutions, would read noise there once they grow like
        # exp(sqrt(-2*lam)*s).
        return dt * float(psi[-1]), 0
    # Exact zeros carry no sign and are skipped.
    positive = psi > 0.0
    signs = positive[positive | (psi < 0.0)]
    return dt * float(psi[-1]), int(np.count_nonzero(signs[1:] != signs[:-1]))


@dataclass
class StringSpectrum:
    """First eigenvalues of the string problem at n steps; eigenfunctions on request."""

    tau: float
    lambdas: np.ndarray
    n: int

    def __post_init__(self) -> None:
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if np.any(self.lambdas <= 0.0):
            raise DomainError("string eigenvalues must be positive")
        if np.any(np.diff(self.lambdas) <= 0.0):
            raise DomainError("string eigenvalues must be strictly increasing")

    def eigenfunction(self, k: int) -> TestFunction:
        """psi_k at the n+1 nodes of [-tau, tau]: the RK4 trajectory at lambda_k.

        Normalized to unit weighted norm (weight 2/cosh^2 s) with
        psi'(-tau) > 0; one full prefix sweep. Raises DomainError unless
        1 <= k <= len(lambdas).
        """
        if k not in range(1, self.lambdas.size + 1):
            raise DomainError(f"k must be in 1..{self.lambdas.size}, got {k!r}")
        tau, n = self.tau, self.n
        dt = _check_problem(tau, n)
        lam = float(self.lambdas[k - 1])
        # psi/dt, not psi: its weighted norm cannot underflow at tiny tau
        values = _sweep(_steps(_coefficients(_samples(tau, dt, n)), lam * dt * dt), n % 2)
        values[-1] = 0.0
        grid = np.linspace(-tau, tau, n + 1)
        norm = composite_simpson(_density(grid) * values * values, dt)
        return TestFunction(grid=grid, values=values / math.sqrt(norm))


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
    """First k_max Dirichlet eigenvalues by shooting; eigenfunctions on request.

    Isolates each lambda_k between node counts k-1 and k, then solves
    psi(tau; lambda) = 0 on the bracket. The result's eigenfunction(k) sweeps
    at lambda_k for the RK4 trajectory.

    Accuracy: lambda_k is the discrete RK4 root to about 1e-14 relative; the
    RK4 error is O(dt^4). At the default n, lambda_k is within 3e-10
    relative of the exact eigenvalue for k <= 5 at the 20 exact Legendre
    pins with tau from 0.19 to 2.51 (2.3e-10 measured, at k = 5, tau = 2.51;
    2.4e-9 at k = 8), and the error grows with lambda_k*dt^2 beyond them.

    Raises DomainError unless 0 < 2*tau < inf, dt = 2*tau/n is a normal
    float, k_max >= 1 and n >= 256, where pi^2/(8 tau^2) (a lower bound on
    lambda_1) overflows, and where lambda_{k_max} exceeds 3/dt^2: n steps
    cannot resolve k_max eigenvalues at that tau.
    """
    dt = _check_problem(tau, n)
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max!r}")
    lam_floor = math.pi**2 / 8.0 / tau / tau  # <= lambda_1, because rho <= 2
    if lam_floor == math.inf:
        raise DomainError(f"the eigenvalues at tau={tau!r} exceed the float range")
    ab = _coefficients(_samples(tau, dt, n))
    # RK4's phase per step reaches pi at lam*dt^2*rho = 6, short of its
    # stability bound 8; beyond, the node count falls with lambda.
    lam_max = 3.0 / dt / dt
    # tol_f is absolute and psi(tau) shrinks like tau: below tau = 0.2, psi in
    # units of 5*tau solves lambda*tau^2 to one relative accuracy at any tau.
    unit = min(1.0, 5.0 * tau)

    # The bisections for successive k retrace each other's midpoints, and the
    # root solve evaluates bracket ends already shot: shoot each lambda once.
    shot_at: Dict[float, Tuple[float, int]] = {}

    def shoot_once(lam: float) -> Tuple[float, int]:
        if lam not in shot_at:
            shot_at[lam] = _shoot(ab, lam, tau, dt, n)
        return shot_at[lam]

    def end_value(lam: float) -> float:
        if lam in shot_at:
            return shot_at[lam][0] / unit
        return dt * _end(_steps(ab, lam * dt * dt), n % 2) / unit

    # Doubling from the largest power of two below the bound skips only
    # lambdas with no nodes, so the ceiling is the one doubling from 1 finds.
    lam_hi = min(math.ldexp(1.0, math.frexp(max(1.0, lam_floor))[1] - 1), lam_max)
    while shoot_once(lam_hi)[1] < k_max:
        if lam_hi == lam_max:
            raise DomainError(f"{n} steps cannot resolve {k_max} eigenvalues at tau={tau!r}")
        lam_hi = min(2.0 * lam_hi, lam_max)

    lams = []
    for k in range(1, k_max + 1):
        lo, hi = _bracket_by_nodes(shoot_once, k, lam_hi)
        # about half the solves end on tol_x, so it scales with lambda_k's floor
        tol_x = 1e-15 * max(lo, lam_floor)
        lams.append(find_root_bracketed(end_value, lo, hi, tol_x=tol_x, tol_f=1e-16))
    return StringSpectrum(tau=tau, lambdas=np.array(lams), n=n)


def dense_eigenvalues(tau: float, k_max: int) -> np.ndarray:
    """Independent check: 3-point finite differences as a matrix eigenproblem.

    Discretizing -psi'' = lambda*rho*psi on 4096 intervals and scaling by
    rho^(-1/2) gives a symmetric tridiagonal standard problem; the smallest
    k_max eigenvalues come from a direct tridiagonal solver. Apart from the
    density itself, no code is shared with the shooting route. Its bisection
    stops at an absolute 1e-13 (eps*||A|| grows like cosh^2 tau). Raises
    DomainError where it fails (tau ~200 to ~354, and below tau ~1e-74, where
    the eigenvalues' rounding exceeds 1e-13) or the matrix entries overflow
    (1/rho beyond, the squared step near tau = 1e308).
    """
    # Deferred: scipy.linalg is most of the import time of the package, and
    # only this oracle needs it.
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    ds = _check_problem(tau, _DENSE_INTERVALS)
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max!r}")
    s = np.linspace(-tau, tau, _DENSE_INTERVALS + 1)[1:-1]
    rho = _density(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sqrt = 1.0 / np.sqrt(rho)
        diag = 2.0 / (ds * ds * rho)
    if not np.all(np.isfinite(diag)):
        raise DomainError(f"the matrix entries overflow at tau={tau!r}")
    off = -inv_sqrt[:-1] * inv_sqrt[1:] / (ds * ds)
    try:
        return eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, k_max - 1), tol=1e-13
        )
    except LinAlgError as exc:
        raise DomainError(f"tridiagonal bisection fails at tau={tau!r}: {exc}") from None


def negative_direction(tau: float) -> TestFunction:
    """A direction with negative quadratic form, available once tau > tau_star.

    Returns the normalized ground eigenfunction psi_1(.; tau) at the default
    step count; its form value is lambda_1 - 1 by the normalization, negative
    exactly when tau exceeds tau_star. Raises DomainError unless
    tau_star < tau and eigenvalues(tau, 1) accepts tau.
    """
    tau_star = critical_constants().tau_star
    if tau <= tau_star + 1e-9:
        raise DomainError(
            f"tau={tau!r} does not exceed tau_star={tau_star!r}; no negative direction exists"
        )
    psi = eigenvalues(tau, 1).eigenfunction(1)
    if q_form(psi) >= 0.0:
        raise ConvergenceFailureError(
            f"ground direction at tau={tau!r} failed to certify negativity"
        )
    return psi
