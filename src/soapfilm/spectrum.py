"""Dirichlet string spectrum for the density 2/cosh^2(s) on [-tau, tau].

The stability of a catenoid reduces to the eigenvalue problem

    psi'' + lambda * (2/cosh^2 s) * psi = 0,   psi(-tau) = psi(tau) = 0,

whose first eigenvalue crosses 1 exactly at tau = tau_star. With x = tanh s
and lambda = nu*(nu+1)/2 it is Legendre's equation of degree nu, for every
lambda. From P_nu, Q_nu and their slopes at x = 0 (DLMF 14.5.1-14.5.4),
the solutions even and odd about s = 0 are, up to positive factors,

    psi_e = cos(pi*nu/2) * P_nu(x) - (2/pi) * sin(pi*nu/2) * Q_nu(x),
    psi_o = (pi/2) * sin(pi*nu/2) * P_nu(x) + cos(pi*nu/2) * Q_nu(x),

with P and Q the Ferrers functions; the Gamma ratios of 14.5 cancel. So
lambda_k is exactly the root in nu of psi_e(tanh tau) for odd k and of
psi_o(tanh tau) for even k. eigenvalues evaluates them with `math` alone:
P and Q as series in z = (1 - x)/2, the hypergeometric series in x^2 about
s = 0 where z is large, and the recurrence in the degree where either
series would cancel (see _characteristic). The signs of (psi_e, psi_o)
count the eigenvalues below lambda mod 4, which brackets each root, and
each lambda_k is solved as the root of the pair's unwrapped angle less
k*pi/2, a Pruefer phase nearly linear in nu (see eigenvalues). No ODE is
integrated, and numpy is not imported.

shoot integrates the ODE by fixed-step RK4 with dt = 2*tau/n. Because the
ODE is linear, each RK4 step is a 2x2 matrix on (psi, dt*psi'), and
recursive doubling forms every prefix product, so psi comes out at every
node in log2(n) batched passes (see _trajectory).
dense_eigenvalues solves the same problem as a finite-difference matrix
eigenproblem and serves as an independent check.

negative_direction solves no eigenproblem: the Jacobi operator
-d^2/ds^2 - 2/cosh^2 s of the form Q has the one-soliton potential, whose
Dirichlet ground state is elementary (Poeschl & Teller 1933).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from .errors import ConvergenceFailureError, DomainError, _count
from .extremals import _Record, critical_constants
from .rootfind import find_root_bracketed

if TYPE_CHECKING:
    import numpy as np

    from .grids import TestFunction

__all__ = [
    "StringSpectrum",
    "shoot",
    "eigenvalues",
    "dense_eigenvalues",
    "negative_direction",
]

_MIN_STEPS = 256
_DEFAULT_STEPS = 2048
_EULER_GAMMA = 0.5772156649015329
# from x = tanh(tau) = sqrt(3) - 1 on, 2*sqrt(z) <= x: the series in z loses less
_NEAR_ENDS = math.sqrt(3.0) - 1.0
# largest nu*x or 2*nu*sqrt(z) summed as a series, which then loses at most
# ~exp(12) ulps; beyond, the recurrence in the degree, up to degree 1e4, and
# past that the series again, up to twice this loss
_MAX_LOSS = 12.0
_MAX_DEGREE = 1e4
_HALF_PI = 0.5 * math.pi
# the rounding unit eps relative to an angle of pi/2
_ANGLE_ULP = _HALF_PI * sys.float_info.epsilon
# intervals of dense_eigenvalues' finite-difference matrix
_DENSE_INTERVALS = 4096


def _check_problem(tau: float, n: int) -> float:
    """Validate the interval and the step count; return the step dt = 2*tau/n."""
    if not 0.0 < 2.0 * tau < math.inf:
        raise DomainError(f"half-interval must be positive with 2*tau finite, got {tau!r}")
    n = _count("n", n, _MIN_STEPS)
    dt = 2.0 * tau / n
    if dt < sys.float_info.min:
        raise DomainError(f"step 2*tau/n = {dt!r} is subnormal at tau={tau!r}")
    return dt


def _trajectory(tau: float, lam: float, n: int) -> np.ndarray:
    """psi/dt at the n+1 nodes of [-tau, tau] for (psi, dt*psi')(-tau) = (0, 1).

    Each RK4 step is a 2x2 matrix on (psi, dt*psi'), whose entries are
    quadratics in q = lam*dt^2*rho at the step's node (q0), midpoint (qh) and
    next node (q1). Recursive doubling (log2(n) levels of batched 2x2
    products) turns the n step matrices into the prefix products M_j...M_0
    in place; their (0, 1) entries are the shot at nodes 1..n.
    """
    # Deferred with grids and variation: eigenvalues computes with math alone.
    import numpy as np

    from .variation import _density

    dt = 2.0 * tau / n
    q = (lam * dt * dt) * _density(0.5 * dt * np.arange(-n, n + 1))
    q0, qh, q1 = q[0:-1:2], q[1::2], q[2::2]
    m = np.array(
        [
            [1.0 - (q0 + 2.0 * qh) / 6.0 + q0 * qh / 24.0, 1.0 - qh / 6.0],
            [
                qh * (q0 + q1) / 12.0 - (q0 + 4.0 * qh + q1) / 6.0,
                1.0 - (2.0 * qh + q1) / 6.0 + qh * q1 / 24.0,
            ],
        ]
    )
    span = 1
    while span < n:
        # m[:, :, i] <- m[:, :, i] @ m[:, :, i - span] for every i >= span
        m[:, :, span:] = np.einsum("ijk,jlk->ilk", m[:, :, span:], m[:, :, :-span])
        span *= 2
    return np.concatenate(([0.0], m[0, 1]))


def shoot(tau: float, lam: float, n: int = _DEFAULT_STEPS) -> Tuple[float, int]:
    """Integrate psi'' + lam*rho*psi = 0 from (psi, psi')(-tau) = (0, 1).

    Returns psi(tau) and the number of sign changes the solution makes at the
    n+1 nodes after leaving the initial zero (the Sturm oscillation count).
    Fixed-step RK4, one forward sweep over the n steps of [-tau, tau];
    deterministic for given (tau, lam, n). For lam <= 0 every step matrix is
    entrywise non-negative, so psi > 0 after the first step and the count is
    0. Raises DomainError unless 0 < 2*tau < inf, n is an integer in
    256..2**20, dt = 2*tau/n is a normal float and lam is finite, and where
    psi overflows (lam far beyond RK4's stability bound 4/dt^2, or far
    below 0).
    """
    import numpy as np

    dt = _check_problem(tau, n)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        psi = _trajectory(tau, lam, n)
    if not np.all(np.isfinite(psi)):
        raise DomainError(f"psi overflows at lambda={lam!r}, tau={tau!r}, n={n!r}")
    # Exact zeros carry no sign and are skipped.
    positive = psi > 0.0
    signs = positive[positive | (psi < 0.0)]
    return dt * float(psi[-1]), int(np.count_nonzero(signs[1:] != signs[:-1]))


class StringSpectrum(_Record, namedtuple("StringSpectrum", "tau lambdas")):
    """First eigenvalues of the string problem.

    lambdas is a tuple of floats, positive and strictly increasing.
    """

    __slots__ = ()

    def __new__(cls, tau: float, lambdas: Tuple[float, ...]) -> StringSpectrum:
        lambdas = tuple(map(float, lambdas))
        if not all(lam > 0.0 for lam in lambdas):
            raise DomainError("string eigenvalues must be positive")
        if not all(a < b for a, b in zip(lambdas, lambdas[1:])):
            raise DomainError("string eigenvalues must be strictly increasing")
        return tuple.__new__(cls, (tau, lambdas))


def _digamma(x: float) -> float:
    """psi(x) for x >= 1 to about 1e-15: recurrence up to 10, then the asymptotic series."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv = 1.0 / (x * x)
    # B_2j/(2j) for j = 6 down to 1, by Horner's rule
    tail = (
        (((-691.0 / 32760 * inv + 1.0 / 132) * inv - 1.0 / 240) * inv + 1.0 / 252) * inv
        - 1.0 / 120
    ) * inv + 1.0 / 12
    return math.log(x) - 0.5 / x - tail * inv - shift


def _ferrers(tau: float, z: float, nu: float) -> Tuple[float, float]:
    """The Ferrers P_nu and Q_nu at x = tanh(tau), as series in z = (1 - x)/2.

    P = sum c_j z^j with c_j = (-nu)_j (nu+1)_j / (j!)^2, and
    Q = P*(tau - gamma - digamma(nu+1)) + sum c_j H_j z^j with H_j the
    harmonic numbers; atanh(x) = tau is passed exactly. Past the largest
    term the ratio of terms falls, and below 1/2 the tail is under the last
    term, which ends the sum at 1e-17 of the largest.
    """
    two_lam = nu * (nu + 1.0)  # (j - nu)(j + nu + 1) = j(j + 1) - two_lam
    term, p, s, harmonic, peak, j = 1.0, 1.0, 0.0, 0.0, 1.0, 0.0
    while True:
        ratio = (j * (j + 1.0) - two_lam) / ((j + 1.0) * (j + 1.0)) * z
        j += 1.0
        term *= ratio
        harmonic += 1.0 / j
        p += term
        size = term * harmonic
        s += size
        size = abs(size)
        if size > peak:
            peak = size
        elif size <= 1e-17 * peak and -0.5 <= ratio <= 0.5:
            return p, p * (tau - _EULER_GAMMA - _digamma(nu + 1.0)) + s


def _parity_pair(nu: float, p: float, q: float) -> Tuple[float, float]:
    """(psi_e, (2/pi)*psi_o) from P_nu and Q_nu at one x: (P, (2/pi)*Q) turned by pi*nu/2.

    cos and sin of pi*nu/2 come from nu - round(nu), which is exact, so they
    keep their relative accuracy next to every integer nu.
    """
    m = round(nu)
    r = (nu - m) * _HALF_PI
    c, s = math.cos(r), math.sin(r)
    cos, sin = ((c, s), (-s, c), (-c, -s), (s, -c))[m % 4]
    q /= _HALF_PI
    return cos * p - sin * q, sin * p + cos * q


def _recurrence(tau: float, x: float, z: float, nu: float) -> Tuple[float, float]:
    """(psi_e, (2/pi)*psi_o) from P and Q of degrees nu - m, nu - m + 1 raised to nu, m = floor(nu).

    Both Ferrers functions satisfy (d+1) F_{d+1} = (2d+1) x F_d - d F_{d-1},
    and for |x| < 1 they oscillate alike, so neither dominates and the
    upward recurrence keeps their relative accuracy up to a factor that
    grows like the number of steps. The two start degrees are below 2,
    where the series in z lose nothing.
    """
    m = math.floor(nu)
    d = nu - m
    p0, q0 = _ferrers(tau, z, d)
    p1, q1 = _ferrers(tau, z, d + 1.0)
    for _ in range(m - 1):
        d += 1.0
        p0, p1 = p1, ((2.0 * d + 1.0) * x * p1 - d * p0) / (d + 1.0)
        q0, q1 = q1, ((2.0 * d + 1.0) * x * q1 - d * q0) / (d + 1.0)
    return _parity_pair(nu, p1, q1) if m else _parity_pair(nu, p0, q0)


def _about_centre(x: float, nu: float) -> Tuple[float, float]:
    """(psi_e, sqrt(2*lambda)*psi_o) at x = tanh(tau) from the series about s = 0.

    psi_e = 2F1(-nu/2, (nu+1)/2; 1/2; x^2) and
    psi_o = x*2F1((1-nu)/2, nu/2+1; 3/2; x^2), summed as _ferrers sums:
    psi_e(0) = 1 and psi_o'(0) = 1.
    """
    a, b = 0.5 * nu * x, (0.5 * nu + 0.5) * x
    even, odd, te, to, peak, j = 1.0, 1.0, 1.0, 1.0, 1.0, 0.0
    while True:
        # (j - nu/2)(j + (nu+1)/2) x^2 and (j + (1-nu)/2)(j + nu/2 + 1) x^2
        re = (j * x - a) * (j * x + b) / ((j + 0.5) * (j + 1.0))
        ro = (j * x + x - b) * (j * x + x + a) / ((j + 1.5) * (j + 1.0))
        j += 1.0
        te *= re
        to *= ro
        even += te
        odd += to
        size = abs(te) + abs(to)
        if size > peak:
            peak = size
        elif size <= 1e-17 * peak and -0.75 <= re <= 0.75 and -0.75 <= ro <= 0.75:
            return even, math.sqrt(nu) * math.sqrt(nu + 1.0) * x * odd


def _characteristic(tau: float) -> Callable[[float], Tuple[float, float]]:
    """nu -> (psi_e, w*psi_o) at s = tau, for lambda = nu*(nu+1)/2.

    w makes the pair's angle nearly linear in nu: w = 2/pi on the Ferrers
    scale, where the angle is pi*nu/2 + arg(P + i*(2/pi)*Q), and
    w = sqrt(2*lambda) on the x^2 form's, where psi_e(0) = psi_o'(0) = 1 and
    the angle is about sqrt(2*lambda) times the Liouville length
    gd(tau) = integral of sqrt(rho/2). Both series alternate once nu is
    large, the one in z like J_0(2*nu*sqrt(z)) and the one in x^2 like
    cos(nu*x), so each loses about exp(2*nu*sqrt(z)) or exp(nu*x) ulps in
    rounding. The one in z serves where 2*sqrt(z) <= x, that is
    x >= sqrt(3) - 1, and the one in x^2 below: one form per tau keeps a
    root solve's values on one scale. Where that loss would exceed exp(12),
    the upward recurrence in the degree takes over, in floor(nu) steps, up
    to degree 1e4; it carries the Ferrers scale, whose psi_e and psi_o are
    positive multiples of the x^2 form's, so signs agree across the switch.
    Beyond degree 1e4, at tau below ~1e-3 where nu*x stays near k*pi/2, the
    series go on to a loss of exp(24), up to about 1e-8 relative, and
    DomainError is raised past it.
    """
    x = math.tanh(tau)
    t = math.exp(-2.0 * tau)
    z = t / (1.0 + t)
    centre = x < _NEAR_ENDS
    rate = x if centre else 2.0 * math.sqrt(z)

    def psi(nu: float) -> Tuple[float, float]:
        loss = nu * rate
        if loss > _MAX_LOSS and nu <= _MAX_DEGREE:
            return _recurrence(tau, x, z, nu)
        if loss > 2.0 * _MAX_LOSS:
            raise DomainError(
                f"lambda = {0.5 * nu * (nu + 1.0)!r} is beyond the series' precision at tau={tau!r}"
            )
        if centre:
            return _about_centre(x, nu)
        return _parity_pair(nu, *_ferrers(tau, z, nu))

    return psi


def _degree(root: float) -> float:
    """nu >= 0 with nu*(nu+1)/2 = root^2, without overflow or cancellation."""
    return root * (4.0 * root / (math.hypot(1.0, math.sqrt(8.0) * root) + 1.0))


def eigenvalues(tau: float, k_max: int) -> StringSpectrum:
    """First k_max Dirichlet eigenvalues, the roots of the Legendre characteristic functions.

    lambda_k = nu*(nu+1)/2 is the root in nu of psi_e(tau) for odd k and of
    psi_o(tau) for even k (see the module docstring). N, the number of
    eigenvalues below lambda, is given mod 4 by the signs of (psi_e, psi_o):
    (+, +), (-, +), (-, -), (+, -) for N = 0, 1, 2, 3. So the angle of
    (psi_e, w*psi_o) unwrapped by N (see _characteristic for w) is k*pi/2
    exactly at lambda_k, and find_root_bracketed solves it less k*pi/2 by
    secant steps: its sign is that of N >= k on any positive scale, and it
    is nearly linear in nu (a Pruefer angle, as in SLEIGN2: Bailey, Everitt
    & Zettl, ACM TOMS 27(2), 2001). The brackets come from N, known exactly
    at two kinds of points:
    - N = 0 below half of max(a^2, 1/(2*tau*tanh(tau))), a = pi/(sqrt(8)*tau).
      Both are lower bounds on lambda_1: the first by Sturm comparison with
      rho <= 2, the second because psi^2 <= (tau/2) * integral psi'^2 for
      psi vanishing at both ends, while rho integrates to 4*tanh(tau).
    - N = k between (k*a*cosh(tau))^2 and ((k+1)*a)^2 where k*cosh(tau) <
      k+1: Sturm comparison with rho >= 2/cosh^2(tau) and rho <= 2 puts
      lambda_k below the first and lambda_k+1 above the second.
    From a point of known N, a step of at most 3 in nu crosses at most three
    eigenvalues, because successive nu_k lie more than 1 apart (the tests
    check this for k <= 8 and tau in [1e-2, 300]); so the signs there give
    N itself. Bisection then narrows each bracket to counts k-2 or k-1 and
    k or k+1 at its ends.

    Accuracy: lambda_k is within 1e-13 relative of the exact eigenvalue for
    k <= 5 and tau in [0.05, 300] (the tests check this against 50-digit
    mpmath roots of the same condition; measured at most 1.3e-14), and
    within a few 1e-13 up to k = 20 at tau >= 0.01. Below tau ~ 1e-3, where
    the recurrence would take over 1e4 steps, k from 8 to 14 lose up to 1e-9.

    Raises DomainError unless 0 < tau < inf and k_max is an integer in
    1..2**20, where the eigenvalues leave the float range (lambda_1 below
    the least normal float from tau ~ 1e307, lambda_k_max beyond the largest
    float below tau ~ 1e-154), and where no evaluation reaches that
    precision (k_max >= 15 below tau ~ 2e-3).
    """
    if not 0.0 < tau < math.inf:
        raise DomainError(f"half-interval must be positive and finite, got {tau!r}")
    k_max = _count("k_max", k_max, 1)
    a = math.pi / math.sqrt(8.0) / tau
    root_floor = max(a, 1.0 / math.sqrt(2.0 * tau) / math.sqrt(math.tanh(tau)))
    if not sys.float_info.min <= 0.5 * root_floor * root_floor < math.inf:
        raise DomainError(f"the eigenvalues at tau={tau!r} leave the float range")
    # from tau = 1.32 on, cosh(tau) >= 2 and no k is separated this way
    stretch = math.cosh(tau) if tau < 2.0 else math.inf
    psi = _characteristic(tau)
    seen: Dict[float, Tuple[float, float]] = {}

    def count(nu: float, base: int) -> Tuple[int, float, float]:
        """N at nu, from a count base that N exceeds by at most 3, and the pair at nu."""
        if nu not in seen:
            seen[nu] = psi(nu)
        even, odd = seen[nu]
        quadrant = 2 * (odd < 0.0) + ((even < 0.0) != (odd < 0.0))
        return base + (quadrant - base) % 4, even, odd

    def residual(nu: float) -> float:
        """The pair's unwrapped angle at nu less k*pi/2: negative exactly while N < k."""
        n_nu, even, odd = count(nu, n_lo)
        # the angle past the start of quadrant n_nu, and the part of it still ahead
        past, ahead = (abs(odd), abs(even)) if n_nu % 2 == 0 else (abs(even), abs(odd))
        if n_nu >= k:
            return (n_nu - k) * _HALF_PI + math.atan2(past, ahead)
        return -((k - n_nu - 1) * _HALF_PI + math.atan2(ahead, past))

    lo, n_lo = _degree(root_floor * math.sqrt(0.5)), 0
    # below every nu_k: root_floor^2 is itself a lower bound on lambda_1
    nu_floor = _degree(root_floor)
    hi, n_hi = lo, 0
    lams = []
    for k in range(1, k_max + 1):
        while n_hi < k:
            if k * stretch < k + 1:
                hi, n_hi = _degree(0.5 * a * (k * stretch + k + 1)), k
            else:
                # nu_1 ~ 1/tau at large tau, so its bracket grows from lo geometrically
                hi = lo + (min(3.0, 15.0 * lo) if k == 1 else 3.0)
                n_hi = count(hi, n_lo)[0]
            if n_hi < k:
                lo, n_lo = hi, n_hi
        while n_lo < k - 2 or n_hi > k + 1:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                raise ConvergenceFailureError(f"could not isolate eigenvalue {k} at tau={tau!r}")
            n_mid = count(mid, n_lo)[0]
            if n_mid < k:
                lo, n_lo = mid, n_mid
            else:
                hi, n_hi = mid, n_mid
        # nu_k > nu_min (k - 1 by the gaps): tol_x stays a few ulps of the
        # root or more. tol_f is the residual's rounding floor: an ulp of nu
        # moves it by eps*nu times its slope, about pi/2 on the Ferrers scale
        # and k*pi/(2*nu) on the x^2 form's, and the pair's rounding adds as
        # much again. An iterate within it is the root to an ulp or two.
        nu_min = max(lo, k - 1.0, nu_floor)
        tol_f = 2.0 * min(k, nu_min) * _ANGLE_ULP
        nu = find_root_bracketed(residual, lo, hi, tol_x=1e-15 * nu_min, tol_f=tol_f)
        lams.append(0.5 * nu * (nu + 1.0))
        if n_hi == k:
            lo, n_lo = hi, n_hi
    if lams[-1] == math.inf:
        raise DomainError(f"the eigenvalues at tau={tau!r} leave the float range")
    return StringSpectrum(tau=tau, lambdas=lams)


def dense_eigenvalues(tau: float, k_max: int) -> np.ndarray:
    """Independent check: 3-point finite differences as a matrix eigenproblem.

    Discretizing -psi'' = lambda*rho*psi on 4096 intervals and scaling by
    rho^(-1/2) gives a symmetric tridiagonal standard problem; the smallest
    k_max eigenvalues come from a direct tridiagonal solver. Apart from the
    density itself, no code is shared with the shooting route. The matrix
    is formed without the 1/ds^2 factor, whose square would overflow at
    small tau, and its eigenvalues mu = lambda*ds^2 are divided by ds twice.
    The bisection stops at an absolute 1e-13 in lambda (eps*||A|| grows like
    cosh^2 tau). Raises DomainError unless k_max is an integer from 1 to
    the matrix's 4095 rows, where the bisection fails (tau ~200 to ~354),
    where the matrix entries overflow (1/rho beyond tau ~354) and where the
    eigenvalues leave the float range (lambda_k_max beyond the largest float
    below tau ~1e-154, as in eigenvalues).
    """
    ds = _check_problem(tau, _DENSE_INTERVALS)
    k_max = _count("k_max", k_max, 1, _DENSE_INTERVALS - 1)
    # Deferred: scipy.linalg is most of the import time of the package, and
    # only this oracle needs it.
    import numpy as np
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    from .variation import _density

    s = np.linspace(-tau, tau, _DENSE_INTERVALS + 1)[1:-1]
    rho = _density(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sqrt = 1.0 / np.sqrt(rho)
        diag = 2.0 / rho
    if not np.all(np.isfinite(diag)):
        raise DomainError(f"the matrix entries overflow at tau={tau!r}")
    off = -inv_sqrt[:-1] * inv_sqrt[1:]
    try:
        mu = eigh_tridiagonal(
            diag,
            off,
            eigvals_only=True,
            select="i",
            select_range=(0, k_max - 1),
            tol=1e-13 * ds * ds,
        )
    except LinAlgError as exc:
        raise DomainError(f"tridiagonal bisection fails at tau={tau!r}: {exc}") from None
    with np.errstate(over="ignore"):
        lams = mu / ds / ds
    if not np.all(np.isfinite(lams)):
        raise DomainError(f"the eigenvalues at tau={tau!r} leave the float range")
    return lams


def negative_direction(tau: float) -> TestFunction:
    """A direction with negative quadratic form, available once tau > tau_star.

    The Dirichlet ground state of -d^2/ds^2 - 2/cosh^2 s on [-tau, tau]:
    psi = cosh(kappa*s) - tanh(s)*sinh(kappa*s)/kappa at energy -kappa^2,
    kappa in (0, 1) the root of tanh(tau)*tanh(kappa*tau) = kappa, which
    exists exactly when tau > tau_star. Newton steps from kappa = 1 fall
    monotonically to it (the function is concave), and 1 - kappa comes from
    the root condition without cancellation. With a = |s| the samples are
    exp(-kappa*a) + (kappa - tanh a)*exp(kappa*a)*(-expm1(-2*kappa*a))/(2*kappa),
    where (kappa - tanh a)*exp(kappa*a) = 2*exp((kappa - 2)*a)/(1 + exp(-2a))
    - exp(log(1 - kappa) + kappa*a): nothing overflows, and the samples keep
    their accuracy where kappa rounds to 1 (tau ~ 19 on). They lie on the
    2049 nodes of [-tau, tau], scaled to unit weighted norm (weight
    2/cosh^2 s). Raises DomainError unless tau_star + 1e-9 < tau and 2*tau
    is finite, and ConvergenceFailureError if q_form(psi) is not negative.
    """
    import numpy as np

    from .grids import TestFunction, composite_simpson
    from .variation import _density, q_form

    tau_star = critical_constants().tau_star
    if not tau > tau_star + 1e-9:
        raise DomainError(
            f"tau={tau!r} does not exceed tau_star={tau_star!r}; no negative direction exists"
        )
    dt = _check_problem(tau, _DEFAULT_STEPS)
    u = math.exp(-2.0 * tau)
    tanh_tau = math.tanh(tau)
    kappa = 1.0
    while True:
        t = math.exp(-2.0 * kappa * tau)
        # the slope in kappa: tau*tanh(tau)/cosh^2(kappa*tau) - 1
        slope = 4.0 * tau * tanh_tau * t / (1.0 + t) ** 2 - 1.0
        step = kappa - (tanh_tau * (1.0 - t) / (1.0 + t) - kappa) / slope
        if not step < kappa:
            break
        kappa = step
    # 1 - kappa = (1 - tanh(tau)) + tanh(tau)*(1 - tanh(kappa*tau))
    gap = 2.0 * u / (1.0 + u) + tanh_tau * 2.0 * t / (1.0 + t)
    grid = np.linspace(-tau, tau, _DEFAULT_STEPS + 1)
    a = np.abs(grid)
    # (kappa - tanh a)*exp(kappa*a), with kappa - tanh a = (1 - tanh a) - gap
    lead = 2.0 * np.exp((kappa - 2.0) * a) / (1.0 + np.exp(-2.0 * a))
    if gap > 0.0:
        lead -= np.exp(math.log(gap) + kappa * a)
    values = np.exp(-kappa * a) - lead * np.expm1(-2.0 * kappa * a) / (2.0 * kappa)
    values[0] = values[-1] = 0.0
    norm = composite_simpson(_density(grid) * values * values, dt)
    psi = TestFunction(grid=grid, values=values / math.sqrt(norm))
    if q_form(psi) >= 0.0:
        raise ConvergenceFailureError(
            f"ground direction at tau={tau!r} failed to certify negativity"
        )
    return psi
