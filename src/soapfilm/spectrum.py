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
series would cancel (see _characteristic). The angle of the pair
(psi_e, psi_o), suitably scaled, is read without forming the pair: as
pi*nu/2 + arg(P + i*(2/pi)*Q) from P and Q, and directly from the series
about s = 0. Each lambda_k is solved as the root of that angle less
k*pi/2, wrapped once by 2*pi into [-pi, pi]: a Pruefer phase nearly linear
in nu, bracketed by the previous root and a closed-form Sturm bound from
the equation's Liouville normal form (see eigenvalues). No ODE is
integrated, and numpy is not imported.

shoot integrates the ODE by fixed-step RK4 with dt = 2*tau/n, one scalar
step at a time; it is the RK4 oracle of the tests and imports no numpy.
dense_eigenvalues serves as an independent check: it finds the eigenvalues
of the 3-point finite-difference matrix on 4096 intervals from Sturm counts
of its three-term recurrence, one O(n) sweep per trial lambda, with `math`
alone, as shoot does.

negative_direction solves no eigenproblem: the Jacobi operator
-d^2/ds^2 - 2/cosh^2 s of the form Q has the one-soliton potential, whose
Dirichlet ground state is elementary (Poeschl & Teller 1933).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Tuple

from .errors import ConvergenceFailureError, DomainError, _count
from .extremals import _Record, _log_cosh

if TYPE_CHECKING:
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
_TWO_PI = 2.0 * math.pi
# the rounding unit eps relative to an angle of pi/2
_ANGLE_ULP = _HALF_PI * sys.float_info.epsilon
# the upper bracket ends' margin past their bounds: 1e-3*pi/2 of the pair's
# angle past the Sturm bound, 1e-3 relative past the tent's; both far above
# the residual's worst rounding, exp(24) ulps of the series
_PAD = 1e-3
# intervals of dense_eigenvalues' finite-difference matrix and the index of
# its centre node; per root, the sweeps that may take secant points and the
# most sweeps in all
_DENSE_INTERVALS = 4096
_HALF = _DENSE_INTERVALS // 2
_SECANT_SWEEPS = 8
_MAX_SWEEPS = 100
# psi beyond _BIG at a sign change is scaled by _SMALL, exactly
_BIG = 2.0**500
_SMALL = 2.0**-500


def _check_problem(tau: float, n: int) -> float:
    """Validate the interval and the step count; return the step dt = 2*tau/n."""
    if not 0.0 < 2.0 * tau < math.inf:
        raise DomainError(f"half-interval must be positive with 2*tau finite, got {tau!r}")
    n = _count("n", n, _MIN_STEPS)
    dt = 2.0 * tau / n
    if dt < sys.float_info.min:
        raise DomainError(f"step 2*tau/n = {dt!r} is subnormal at tau={tau!r}")
    return dt


def shoot(tau: float, lam: float, n: int = _DEFAULT_STEPS) -> Tuple[float, int]:
    """Integrate psi'' + lam*rho*psi = 0 from (psi, psi')(-tau) = (0, 1).

    Returns psi(tau) and the number of sign changes the solution makes at the
    n+1 nodes after leaving the initial zero (the Sturm oscillation count).
    Fixed-step RK4, one forward sweep over the n steps of [-tau, tau]; each
    step is a 2x2 matrix on (psi, dt*psi'), whose entries are quadratics in
    q = lam*dt^2*rho at the step's node (q0), midpoint (qh) and next node
    (q1). Deterministic for given (tau, lam, n). For lam <= 0 every step
    matrix is entrywise non-negative, so psi > 0 after the first step and
    the count is 0. Raises DomainError unless 0 < 2*tau < inf, n is an
    integer in 256..2**20, dt = 2*tau/n is a normal float and lam is finite,
    and where psi overflows (lam far beyond RK4's stability bound 4/dt^2, or
    far below 0).
    """
    dt = _check_problem(tau, n)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    scale = lam * dt * dt

    def q(i: int) -> float:
        # rho = 2/cosh^2 s = 8t/(1 + t)^2 at s = (i - n)*dt/2, t = exp(-2|s|) <= 1
        t = math.exp(-2.0 * abs(0.5 * dt * (i - n)))
        return scale * (8.0 * t / ((1.0 + t) * (1.0 + t)))

    # psi/dt and psi' from (0, 1); sign is that of the last nonzero psi
    psi, slope, sign, nodes = 0.0, 1.0, 0, 0
    q0 = q(0)
    for i in range(1, 2 * n, 2):
        qh, q1 = q(i), q(i + 1)
        psi, slope = (
            (1.0 - (q0 + 2.0 * qh) / 6.0 + q0 * qh / 24.0) * psi + (1.0 - qh / 6.0) * slope,
            (qh * (q0 + q1) / 12.0 - (q0 + 4.0 * qh + q1) / 6.0) * psi
            + (1.0 - (2.0 * qh + q1) / 6.0 + qh * q1 / 24.0) * slope,
        )
        q0 = q1
        # Exact zeros carry no sign and are skipped.
        if psi:
            step_sign = 1 if psi > 0.0 else -1
            if step_sign == -sign:
                nodes += 1
            sign = step_sign
    if not math.isfinite(psi):
        raise DomainError(f"psi overflows at lambda={lam!r}, tau={tau!r}, n={n!r}")
    return dt * psi, nodes


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


def _recurrence(tau: float, x: float, z: float, nu: float) -> Tuple[float, float]:
    """P_nu and Q_nu from the degrees nu - m, nu - m + 1 raised to nu, m = floor(nu).

    Both Ferrers functions satisfy (d+1) F_{d+1} = (2d+1) x F_d - d F_{d-1},
    and for |x| < 1 they oscillate alike, so neither dominates and the
    upward recurrence keeps their relative accuracy up to a factor that
    grows like the number of steps. The two start degrees are below 2,
    where the series in z lose nothing. psi calls it only where
    nu*rate > 12 with rate <= sqrt(3) - 1, so m >= 16.
    """
    m = math.floor(nu)
    d = nu - m
    p0, q0 = _ferrers(tau, z, d)
    p1, q1 = _ferrers(tau, z, d + 1.0)
    for _ in range(m - 1):
        d += 1.0
        p0, p1 = p1, ((2.0 * d + 1.0) * x * p1 - d * p0) / (d + 1.0)
        q0, q1 = q1, ((2.0 * d + 1.0) * x * q1 - d * q0) / (d + 1.0)
    return p1, q1


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
    """nu -> (t, a): the angle of (psi_e, w*psi_o) at s = tau is (t + 1)*pi/2 + a mod 2*pi.

    lambda = nu*(nu+1)/2; w makes the angle nearly linear in nu. On the
    Ferrers scale w = 2/pi, the pair is (P, (2/pi)*Q) turned by pi*nu/2, and
    t = nu, a = atan2(-P, (2/pi)*Q). On the x^2 form's, psi_e(0) =
    psi_o'(0) = 1, w = sqrt(2*lambda), t = 0 and a = atan2(-psi_e, w*psi_o);
    the angle is about sqrt(2*lambda) times the Liouville length
    gd(tau) = integral of sqrt(rho/2). Measured from the quarter turn,
    pi*nu/2 + a keeps nu's relative accuracy where nu_1 ~ 1/tau is small.
    Both series alternate once nu is large, the one in z like
    J_0(2*nu*sqrt(z)) and the one in x^2 like cos(nu*x), so each loses
    about exp(2*nu*sqrt(z)) or exp(nu*x) ulps in rounding. The one in z
    serves where 2*sqrt(z) <= x, that is x >= sqrt(3) - 1, and the one in
    x^2 below: one form per tau keeps a root solve's values on one scale.
    Where that loss would exceed exp(12), the upward recurrence in the
    degree takes over, in floor(nu) steps, up to degree 1e4; it carries the
    Ferrers scale, whose psi_e and psi_o are positive multiples of the x^2
    form's, so signs agree across the switch. Beyond degree 1e4, at tau
    below ~1e-3 where nu*x stays near k*pi/2, the series go on to a loss of
    exp(24), up to about 1e-8 relative, and DomainError is raised past it.
    An evaluation takes 4.5 to 14 us on the benchmark's inputs (CPython
    3.11, x86-64), nearly all of it in the series.
    """
    x = math.tanh(tau)
    t = math.exp(-2.0 * tau)
    z = t / (1.0 + t)
    centre = x < _NEAR_ENDS
    rate = x if centre else 2.0 * math.sqrt(z)

    def psi(nu: float) -> Tuple[float, float]:
        loss = nu * rate
        if loss > _MAX_LOSS and nu <= _MAX_DEGREE:
            p, q = _recurrence(tau, x, z, nu)
        elif loss > 2.0 * _MAX_LOSS:
            raise DomainError(
                f"lambda = {0.5 * nu * (nu + 1.0)!r} is beyond the series' precision at tau={tau!r}"
            )
        elif centre:
            even, odd = _about_centre(x, nu)
            return 0.0, math.atan2(-even, odd)
        else:
            p, q = _ferrers(tau, z, nu)
        return nu, math.atan2(-_HALF_PI * p, q)

    return psi


def _degree(root: float) -> float:
    """nu >= 0 with nu*(nu+1)/2 = root^2, without overflow or cancellation."""
    return root * (4.0 * root / (math.hypot(1.0, math.sqrt(8.0) * root) + 1.0))


def eigenvalues(tau: float, k_max: int) -> StringSpectrum:
    """First k_max Dirichlet eigenvalues, the roots of the Legendre characteristic functions.

    lambda_k = nu*(nu+1)/2 is the root in nu of psi_e(tau) for odd k and of
    psi_o(tau) for even k (see the module docstring). The angle of
    (psi_e, w*psi_o) (see _characteristic), continued in nu from 0, lies in
    [N*pi/2, (N+1)*pi/2) while N eigenvalues lie below lambda: it is k*pi/2
    exactly at lambda_k, and each root is solved on the angle less k*pi/2.
    Its sign is that of N >= k on any positive scale, and it is nearly
    linear in nu (a Pruefer angle, as in SLEIGN2: Bailey, Everitt & Zettl,
    ACM TOMS 27(2), 2001). The residual is (t - k + 1)*pi/2 + a from
    _characteristic's (t, a), t - k + 1 first reduced mod 4 and the sum then
    wrapped once into [-pi, pi], both exactly (math.remainder): it reads the
    continued angle while N is k-2 to k+1, and is formed inline, as the
    whole loop is, to spare a call per evaluation.

    Each root is a bracketed secant loop. Its ends are evaluated first, and
    ConvergenceFailureError is raised unless the residual is < 0 at the
    lower end and >= 0 at the upper: either is a bracket bug. The lower end
    of root k >= 2 is root k - 1, where the residual is -pi/2 to within its
    tolerance, and it is taken as exactly -pi/2 on either scale: on the x^2
    form's, whose rounding near a root reaches ~200 ulps of pi/2 at small
    tau, an evaluation there would read that rounding, not the root. Each
    step takes the secant point of the two latest evaluations, or the
    midpoint where their residuals are equal; moves it tol_x/2 from the
    latest where it is closer (Brent's minimal step), so that a root beside
    it gets bracketed; and projects it onto a ball about the midpoint that
    shrinks so that the bracket after j evaluations is at most
    2**(n + 4 - j)*tol_x wide, n = ceil(log2((hi - lo)/tol_x)) (the ITP
    method: Oliveira & Takahashi, ACM TOMS 47(1), 2021), or takes the
    midpoint where the point leaves the bracket. It stops at an iterate
    with |f| <= tol_f, the residual's rounding floor; at the midpoint once
    the bracket is at most tol_x wide, a few ulps of the root; or, on the
    Ferrers scale, at the next secant point, unevaluated, once the two
    latest residuals have |f1*f2| <= tol_f: the secant's error is
    e+ ~ (f''/2f')*e1*e2, so |f+| <~ |f''/(2f'^2)|*|f1*f2|, well below
    tol_f for this nearly linear angle. The x^2 form evaluates every point.
    So a root takes at most two evaluations at its ends and n + 5 after
    them, 4 beyond bisection's count and one for the midpoints' rounding,
    and ConvergenceFailureError is raised once those are spent. n was at
    most 51 where measured (k <= 40 from tau = 0.01 to 1e300, k <= 15 from
    2e-3), 58 evaluations per root. The benchmark's inputs (k <= 5, tau in
    [0.2, 5]) take 5.4 per call at k = 1 and 4.4 per later root.

    Each root is bracketed in closed form. With x = tanh(s) = sin(phi),
    u = sqrt(cos(phi))*psi solves -u'' - sec^2(phi)*u/4 = (nu + 1/2)^2*u on
    [-gd(tau), gd(tau)], Legendre's equation in Liouville normal form (DLMF
    14.5, 14.15; Olver, Asymptotics and Special Functions, ch. 6). The
    potential is at most -1/4, so by Sturm comparison nu_k < k*c - 1/2,
    c = pi/(2*gd(tau)). Root k is solved between the previous root and
    (k + 1e-3)*c - 1/2; root 1 from the degree at half of
    max(a^2, 1/(2*tau*tanh(tau))), a = pi/(sqrt(8)*tau), two lower bounds on
    lambda_1: by Sturm comparison with rho <= 2, and because
    psi^2 <= (tau/2) * integral psi'^2 for psi vanishing at both ends while
    rho integrates to 4*tanh(tau). Above tau = 1, where c - 1/2 nears 1/2
    but nu_1 ~ 1/tau, root 1 also stays below 1 + 1e-3 times the degree at
    1/(4*log(cosh(tau)) - 2*tau*tanh(tau)), the Rayleigh quotient of the
    tent 1 - |s|/tau with s*tanh(s) <= s*tanh(tau) (it cancels at small tau).

    The wrap is exact over root k's bracket, as N is k-2 or k-1 at the
    previous root and, if nu_k+2 lies above the upper end, k or k+1 there.
    The latter is assumed. It is proven where the upper end is at most
    k + 1, as nu_j > j - 1 (domain monotonicity against phi in
    [-pi/2, pi/2], whose eigenfunctions are sqrt(cos(phi))*P_n(sin(phi))),
    and where ((k+2)*c)^2 - cosh(tau)^2/4 >= ((k + 1e-3)*c)^2 (comparison
    with the potential's lower bound). Neither covers a window of k from
    tau ~ 4.36 on: 105..122 at tau = 4.5, 174..337 at 5, 474..2527 at 6. The
    tests check the assumption for k <= 8 on tau in [1e-2, 300] and up to
    k = 500 at tau = 4.5, 5 and 6.

    Accuracy: lambda_k is within 1e-13 relative of the exact eigenvalue for
    k <= 5 and tau in [0.05, 300] (the tests check this against 50-digit
    mpmath roots of the same condition; measured at most 1.7e-14), and
    within 1e-12 up to k = 20 at tau >= 0.01 (measured at most 6.6e-13,
    at k = 9 to 12 and tau near 1, where the series in z and the x^2
    form lose most to rounding). Below tau ~ k*pi/2e4,
    where the recurrence would take over 1e4 steps, k from 8 to 14 lose up
    to 3e-9 and k = 15 up to 2e-8 (measured against 60-digit roots).

    Raises DomainError unless 0 < tau < inf and k_max is an integer in
    1..2**20, where the eigenvalues leave the float range (lambda_1 below
    the least normal float from tau ~ 1e307, lambda_k_max beyond the largest
    float below tau ~ 1e-154), and where no evaluation reaches that
    precision (k_max >= 16 below tau ~ 2.5e-3). The cost grows about as
    k_max**1.7 (at tau = 1, best of 3 to 5: 0.0075 s at k_max = 100, 0.062 s
    at 400 and 0.85 s at 1 600 on a 2-core Xeon, CPython 3.11), so the 2**20
    count bound caps memory, not time.
    """
    if not 0.0 < tau < math.inf:
        raise DomainError(f"half-interval must be positive and finite, got {tau!r}")
    k_max = _count("k_max", k_max, 1)
    a = math.pi / math.sqrt(8.0) / tau
    root_floor = max(a, 1.0 / math.sqrt(2.0 * tau) / math.sqrt(math.tanh(tau)))
    if not sys.float_info.min <= 0.5 * root_floor * root_floor < math.inf:
        raise DomainError(f"the eigenvalues at tau={tau!r} leave the float range")
    # c = pi/(2*gd(tau)): nu_k < k*c - 1/2
    c = _HALF_PI / (2.0 * math.atan(math.tanh(0.5 * tau)))
    psi = _characteristic(tau)
    remainder, half_pi, two_pi = math.remainder, _HALF_PI, _TWO_PI
    # below every nu_k: root_floor^2 is itself a lower bound on lambda_1
    nu_floor = _degree(root_floor)
    lo = _degree(root_floor * math.sqrt(0.5))
    t, angle = psi(lo)
    f_lo = remainder(remainder(t, 4.0) * half_pi + angle, two_pi)
    lams = []
    for k in range(1, k_max + 1):
        k1 = k - 1.0
        hi = (k + _PAD) * c - 0.5
        if k == 1 and tau > 1.0:
            # the Rayleigh quotient of the tent 1 - |s|/tau bounds lambda_1 above
            inverse = 4.0 * _log_cosh(tau) - 2.0 * tau * math.tanh(tau)
            hi = min(hi, (1.0 + _PAD) * _degree(1.0 / math.sqrt(inverse)))
        # nu_k > nu_min (k - 1 by the gaps): tol_x stays a few ulps of the
        # root or more. tol_f is the residual's rounding floor: an ulp of nu
        # moves it by eps*nu times its slope, about pi/2 on the Ferrers scale
        # and k*pi/(2*nu) on the x^2 form's, and the pair's rounding adds as
        # much again; m*pi/2 and a, which cancel at the root (m = t - k + 1
        # mod 4, |m| <= min(2, nu)), add half an ulp and an ulp of their
        # size. An iterate within it is the root to a few ulps.
        nu_min = max(lo, k1, nu_floor)
        tol_f = (2.0 * min(k, nu_min) + 1.5 * min(2.0, hi)) * _ANGLE_ULP
        tol_x = 1e-15 * nu_min
        t, angle = psi(hi)
        f2 = remainder(remainder(t - k1, 4.0) * half_pi + angle, two_pi)
        if not f_lo < 0.0 <= f2:
            raise ConvergenceFailureError(
                f"no sign change over root {k}'s bracket [{lo!r}, {hi!r}] at tau={tau!r}"
            )
        # the secant's two latest points, each with its t (nu on the Ferrers
        # scale, 0 on the x^2 form's); lo's 0 keeps it out of the unevaluated
        # stop, which needs two evaluated points
        a, b, x1, f1, t1, x2, t2 = lo, hi, lo, f_lo, 0.0, hi, t
        least = 0.5 * tol_x
        # the width the next evaluation leaves is at most `allowed`, which
        # halves with each: within 4 of bisection's count
        n = math.ceil(math.log2((hi - lo) / tol_x))
        allowed = math.ldexp(tol_x, n + 4)
        for _ in range(n + 6):
            half = 0.5 * (b - a)
            mid = a + half
            if half <= least or not a < mid < b:
                nu = mid
                break
            s = x2 - f2 * ((x2 - x1) / (f2 - f1)) if f2 != f1 else mid
            if t1 and t2 and a <= s <= b and -tol_f <= f1 * f2 <= tol_f:
                # |f(s)| <= |f''/2f'^2|*|f1*f2|: s needs no evaluation
                nu = s
                break
            # at least tol_x/2 from x2, so that a root next to it gets
            # bracketed (Brent's minimal step), then within r of mid, so that
            # the next bracket is at most `allowed` wide (the ITP method:
            # Oliveira & Takahashi, ACM TOMS 47(1), 2021)
            if -least < s - x2 < least:
                s = x2 + math.copysign(least, mid - x2)
                if s == x2:
                    s = math.nextafter(x2, mid)
            allowed *= 0.5
            r = allowed - half
            if not -r <= s - mid <= r:
                s = mid + math.copysign(r, s - mid) if r > 0.0 else mid
            if not a < s < b:
                s = mid
            t, angle = psi(s)
            f = remainder(remainder(t - k1, 4.0) * half_pi + angle, two_pi)
            if -tol_f <= f <= tol_f:
                nu = s
                break
            if f < 0.0:
                a = s
            else:
                b = s
            x1, f1, t1, x2, f2, t2 = x2, f2, t2, s, f, t
        else:
            raise ConvergenceFailureError(
                f"root {k} at tau={tau!r} missed its tolerances in its evaluation bound"
            )
        lams.append(0.5 * nu * (nu + 1.0))
        # root k, where root k + 1's residual is -pi/2 to within its tol_f
        lo, f_lo = nu, -half_pi
    if lams[-1] == math.inf:
        raise DomainError(f"the eigenvalues at tau={tau!r} leave the float range")
    return StringSpectrum(tau=tau, lambdas=lams)


def dense_eigenvalues(tau: float, k_max: int) -> Tuple[float, ...]:
    """Independent check: the 3-point finite-difference eigenvalues, by Sturm counts.

    On 4096 intervals of width ds, -psi_(i-1) + 2*psi_i - psi_(i+1) =
    mu*rho_i*psi_i at the 4095 interior nodes, psi_0 = psi_4096 = 0, and
    lambda = mu/ds^2. For a trial mu the recurrence runs from psi_0 = 0,
    psi_1 = 1 in slope form, D_(i+1) = D_i - mu*rho_i*psi_i and psi_(i+1) =
    psi_i + D_(i+1), so nothing cancels at small mu. psi_(i+1) is the i-th
    leading minor of the matrix less mu*diag(rho), so its sign changes count
    the eigenvalues below mu (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967); psi and D are scaled by 2**-500, exactly, where |psi| passes
    2**500 at a sign change. rho is even about the centre node s = 0, so
    every eigenvector is even or odd there, and one sweep over the left
    half serves both: the odd modes' end value is psi_2048, the even modes'
    is e = D_2048 - mu*psi_2048 (the centre row with half its mass; rho = 2
    there), and their sign changes add up to the whole matrix's count N.
    N*pi/2 plus the angle of (e, sqrt(2*mu)*psi_2048) from the axis that
    starts the current quadrant is a discrete Pruefer angle: monotone,
    nearly linear in sqrt(mu), and k*pi/2 exactly at mu_k.

    Each root is a secant loop in sqrt(mu) on that angle less k*pi/2, on a
    bracket kept by the counts: from the previous root's lower end to the
    bound nu_k < k*c - 1/2 that eigenvalues derives for the exact problem,
    with its 1e-3 margin, root 1 also below the Rayleigh quotient of the
    tent min(i, 4096 - i) on the grid; an upper end with N < k is doubled.
    Each step keeps at least half the tolerance from the latest point
    (Brent's minimal step) and takes the midpoint where the secant point
    leaves the bracket and from the ninth sweep on. It stops once the
    bracket is at most 1e-13 of mu wide, or holds no float inside, and
    returns its midpoint; ConvergenceFailureError after 100 sweeps. (The
    former LAPACK bisection stopped at an absolute 1e-13*ds^2 in mu, more
    than lambda_1 ~ 2048/tau^2 from tau ~ 1.4e8.) A root takes 4 to 7
    sweeps of 0.12 to 0.2 ms on the benchmark's inputs (k <= 5, tau in
    [0.2, 5]; CPython 3.11, x86-64), 4 to 8 for k <= 5 from tau = 1e-150
    to 800. Measured errors: at most 2.5e-14 relative against the same
    matrix solved in 40-digit arithmetic (tau = 0.2, 1.2, 4.6, 100; k = 1,
    2, 5), and against the closed form 2*sin(k*pi/8192)^2/ds^2 for k <= 5
    where rho rounds to 2 at every node (tau below ~5e-17). The closed-form
    bound aside, nothing is shared with eigenvalues: rho = 8t/(1 + t)^2,
    t = exp(-2|s|), is formed here, and numpy is not imported.

    The upper modes live in the two tails, where rho is least, and come in
    even/odd pairs whose eigenvalues agree to about 1e-12 or closer, so a
    pair may be returned in either order: from k = 36 at tau = 200, 14 at
    800 and 4 at 1e4, and at tau = 1 from k ~ 2900, where LAPACK returned
    588 equal neighbours. All 4095 at tau = 1 take 25 s, 15.9 sweeps per
    root, and agree with LAPACK's to 1.4e-10. From tau ~ 1e4 a few nodes
    carry all of rho: the eigenvalues spread over decades, and a root takes
    50 to 180 sweeps, most of them doubling the upper end or bisecting.

    Returns lambda_1..lambda_k_max as a tuple of floats. Raises DomainError
    unless 0 < 2*tau < inf with ds a normal float and k_max is an integer
    from 1 to the matrix's 4095 rows; where k_max exceeds the finite
    eigenvalues, one per node whose rho is not 0 (rho underflows beyond
    |s| ~ 372: 4095 up to tau ~ 372, 5 up to tau ~ 3.8e5, 1 from tau ~
    7.6e5); where the recurrence overflows (mu*rho beyond ~1e150 in a
    step); and where the eigenvalues leave the float range (lambda_k_max
    beyond the largest float below tau ~ 1e-154, as in eigenvalues, and
    lambda_1 ~ 2048/tau^2 below the least normal float from tau ~ 3e155).
    """
    ds = _check_problem(tau, _DENSE_INTERVALS)
    k_max = _count("k_max", k_max, 1, _DENSE_INTERVALS - 1)
    # rho at the nodes left of the centre, s = i*ds - tau for i = 1..2047,
    # and the sum of rho*i^2 over them
    rho, mass = [], 0.0
    for i in range(1, _HALF):
        t = math.exp(-2.0 * (tau - i * ds))
        r = 8.0 * t / ((1.0 + t) * (1.0 + t))
        rho.append(r)
        mass += r * i * i
    finite = 1 + 2 * sum(r > 0.0 for r in rho)
    if k_max > finite:
        raise DomainError(
            f"the matrix has {finite} finite eigenvalues at tau={tau!r}, "
            f"fewer than k_max={k_max!r}"
        )

    def angle(x: float) -> Tuple[int, float]:
        """(N, g) at mu = x^2: N eigenvalues lie below mu, and the angle is N*pi/2 + g."""
        mu = x * x
        psi, slope, changes, negative = 1.0, 1.0, 0, False
        for r in rho:
            slope -= mu * r * psi
            psi += slope
            if (psi < 0.0) is not negative:
                changes += 1
                negative = not negative
                if not -_BIG < psi < _BIG:
                    psi *= _SMALL
                    slope *= _SMALL
        even = slope - mu * psi
        if not math.isfinite(even):
            raise DomainError(f"the recurrence overflows at mu={mu!r}, tau={tau!r}")
        n = 2 * changes + ((even < 0.0) is not negative)
        odd = math.sqrt(2.0 * mu) * abs(psi)
        return n, math.atan2(odd, abs(even)) if n % 2 == 0 else math.atan2(abs(even), odd)

    c = _HALF_PI / (2.0 * math.atan(math.tanh(0.5 * tau)))
    lams = []
    lo, f_lo = 0.0, -_HALF_PI
    for k in range(1, k_max + 1):
        nu = (k + _PAD) * c - 0.5
        hi = ds * math.sqrt(0.5 * nu) * math.sqrt(nu + 1.0)
        if k == 1:
            # the Rayleigh quotient of the tent min(i, 4096 - i) on the grid,
            # 4096/sum(rho*psi^2), with rho = 2 at the centre
            hi = min(hi, math.sqrt((1.0 + _PAD) * _HALF / (mass + _HALF * _HALF)))
        while True:
            n, g = angle(hi)
            f_hi = (n - k) * _HALF_PI + g
            if n >= k:
                break
            lo, f_lo, hi = hi, f_hi, 2.0 * hi
        a, b, x1, f1, x2, f2 = lo, hi, lo, f_lo, hi, f_hi
        for i in range(_MAX_SWEEPS):
            mid = 0.5 * (a + b)
            # 1e-13 of mu = x^2
            step = 5e-14 * b
            if b - a <= step or not a < mid < b:
                break
            s = x2 - f2 * ((x2 - x1) / (f2 - f1)) if f2 != f1 else mid
            # at least step/2 from x2, so that a root beside it gets
            # bracketed (Brent's minimal step)
            if -0.5 * step < s - x2 < 0.5 * step:
                s = x2 + math.copysign(0.5 * step, mid - x2)
            if not a < s < b or i >= _SECANT_SWEEPS:
                s = mid
            n, g = angle(s)
            if n < k:
                a = s
            else:
                b = s
            x1, f1, x2, f2 = x2, f2, s, (n - k) * _HALF_PI + g
        else:
            raise ConvergenceFailureError(
                f"dense root {k} at tau={tau!r} missed its tolerance in {_MAX_SWEEPS} sweeps"
            )
        root = 0.5 * (a + b) / ds
        lams.append(root * root)
        # below root k + 1, where its angle less (k + 1)*pi/2 is -pi/2 to rounding
        lo, f_lo = a, -_HALF_PI
    if not sys.float_info.min <= lams[0] <= lams[-1] < math.inf:
        raise DomainError(f"the eigenvalues at tau={tau!r} leave the float range")
    return tuple(lams)


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

    from .grids import TestFunction
    from .variation import _ground_state, q_form

    _check_problem(tau, _DEFAULT_STEPS)
    grid = np.linspace(-tau, tau, _DEFAULT_STEPS + 1)
    psi = TestFunction(grid=grid, values=_ground_state(tau, grid))
    if q_form(psi) >= 0.0:
        raise ConvergenceFailureError(
            f"ground direction at tau={tau!r} failed to certify negativity"
        )
    return psi
