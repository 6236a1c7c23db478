"""Independent reference implementations used to cross-check the library.

Everything here is deliberately primitive: plain bisection with a fixed
halving count, Taylor series summed to convergence, simple finite
differences, plain Simpson sums, a scalar step-by-step RK4 loop, a Sturm
count bisection, and 40- and 50-digit mpmath roots and closed forms. None
of it calls into soapfilm internals.
"""

import functools
import math

import mpmath
import numpy as np


def bisect60(f, lo, hi):
    """Sixty plain halvings of a sign-changing bracket."""
    flo = f(lo)
    fhi = f(hi)
    if (flo < 0) == (fhi < 0):
        raise ValueError("no sign change")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cosh_series(x):
    """cosh via its Taylor series, no math.cosh."""
    total, term, k = 1.0, 1.0, 0
    while True:
        k += 2
        term *= x * x / ((k - 1) * k)
        total += term
        if term < 1e-18 * total:
            return total


def sinh_series(x):
    """sinh via its Taylor series, no math.sinh."""
    total, term, k = x, x, 1
    while True:
        k += 2
        term *= x * x / ((k - 1) * k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            return total


def central_diff(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


def riccati_residual(mu, mu_prime, s, fd_step=1e-4):
    """|w' + w^2 + 2/cosh^2 s| at s for w = mu_prime/mu, w' by central difference.

    Where mu solves the Jacobi equation mu'' + (2/cosh^2 s) mu = 0 and
    mu_prime is its derivative, w is the solution of that Riccati companion,
    so the residual is O(fd_step^2). w blows up at mu's roots: keep s clear
    of them.
    """

    def w(x):
        return mu_prime(x) / mu(x)

    return abs(central_diff(w, s, fd_step) + w(s) ** 2 + 2.0 / math.cosh(s) ** 2)


def _simpson(values, dx):
    """Plain composite Simpson over an even number of intervals."""
    if (len(values) - 1) % 2:
        raise ValueError("plain Simpson needs an even number of intervals")
    odd, even = np.sum(values[1:-1:2]), np.sum(values[2:-1:2])
    return dx / 3.0 * (values[0] + 4.0 * odd + 2.0 * even + values[-1])


def rayleigh_quotient(psi):
    """Integral of psi'^2 over integral (2/cosh^2 s) psi^2 for a sampled psi.

    psi has a uniform .grid and .values; psi' by second-order differences.
    The quotient's minimum over admissible directions is the first string
    eigenvalue, so on any sampled direction it bounds lambda_1 from above.
    """
    grid, values = psi.grid, psi.values
    dx = (grid[-1] - grid[0]) / (len(grid) - 1)
    dpsi = np.gradient(values, dx, edge_order=2)
    weight = 2.0 / np.cosh(grid) ** 2
    return _simpson(dpsi * dpsi, dx) / _simpson(weight * values * values, dx)


def exact_rayleigh_quotient(f, df, tau, n=2049):
    """Integral of df^2 over integral (2/cosh^2 s) f^2 on n nodes of [-tau, tau].

    df is f's exact derivative, not a sampled one, so plain Simpson's
    O(dx^4) error is the quotient's only one. For f vanishing at both ends
    the exact quotient bounds lambda_1 from above, with equality exactly for
    the ground state.
    """
    grid = np.linspace(-tau, tau, n)
    dx = 2.0 * tau / (n - 1)
    values, slopes = f(grid), df(grid)
    weight = 2.0 / np.cosh(grid) ** 2
    return _simpson(slopes * slopes, dx) / _simpson(weight * values * values, dx)


def richardson_diff(f, x, step):
    """Central difference at step and step/2, Richardson combined."""
    coarse = central_diff(f, x, step)
    fine = central_diff(f, x, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def smooth_test_profiles(rng, h, n, count, amplitude=0.08):
    """Random low-mode sine mixtures pinned to 1 at both ends."""
    grid = np.linspace(-h, h, n + 1)
    out = []
    for _ in range(count):
        y = np.ones(n + 1)
        for k in range(1, 5):
            y += rng.uniform(-amplitude, amplitude) * np.sin(
                k * math.pi * (grid + h) / (2.0 * h)
            )
        y[0] = 1.0
        y[-1] = 1.0
        out.append((grid, y))
    return out


def rk4_sweep(tau, lam, n):
    """Scalar RK4 shooting for psi'' + lam (2/cosh^2 s) psi = 0, (psi, psi')(-tau) = (0, 1).

    One plain Python step at a time; returns (psi(tau), sign changes, psi at
    every node).
    """
    return _rk4(_half_step_density(tau, n), lam, 2.0 * tau / n)


def _half_step_density(tau, n):
    """2/cosh^2 s on the half-step grid: index 2i is node i, 2i+1 its midpoint.

    The points are (i - n)*dt/2, not -tau + i*dt/2: the latter misplaces the
    nodes near s = 0, where the density matters most, by up to an ulp of tau,
    which moves psi(tau) by 1.1e-11 relative at tau = 300, lam = 700, n = 257.
    """
    dt = 2.0 * tau / n
    return [_string_density(0.5 * dt * (i - n)) for i in range(2 * n + 1)]


def _string_density(s):
    """2/cosh^2 s; 0 from |s| ~ 355 on, where cosh^2 s overflows (the density is subnormal)."""
    try:
        return 2.0 / math.cosh(s) ** 2
    except OverflowError:
        return 0.0


def _rk4(rho, lam, dt):
    q = [lam * r for r in rho]
    u = 0.0
    v = 1.0
    nodes = 0
    last_sign = 0
    half = 0.5 * dt
    sixth = dt / 6.0
    trajectory = [0.0]
    for i in range(len(rho) // 2):
        q0 = q[2 * i]
        qh = q[2 * i + 1]
        q1 = q[2 * i + 2]
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
        u = u + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (a1v + 2.0 * a2v + 2.0 * a3v + a4v)
        trajectory.append(u)
        if u > 0.0:
            sign = 1
        elif u < 0.0:
            sign = -1
        else:
            sign = 0
        if sign != 0:
            if last_sign != 0 and sign != last_sign:
                nodes += 1
            last_sign = sign
    return u, nodes, trajectory


def discrete_eigenvalue(tau, k, n=2048):
    """The k-th root in lam of the scalar RK4 end value psi(tau; lam), to adjacent floats.

    The sign-change count reaches k exactly where psi(tau) changes sign at
    the k-th eigenvalue, so doubling from 1 brackets that root and plain
    halving of the bracket bisects the end value's sign until no float lies
    between its ends.
    """
    rho = _half_step_density(tau, n)
    dt = 2.0 * tau / n

    def past(lam):
        return _rk4(rho, lam, dt)[1] >= k

    lo, hi = 0.0, 1.0
    while not past(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if past(mid):
            hi = mid
        else:
            lo = mid


@functools.cache
def mpmath_constants():
    """(tau_star, h_star, h_G) as the doubles nearest their 40-digit mpmath values.

    tau_star solves tau*tanh(tau) = 1 and h_star = tau_star/cosh(tau_star).
    h_G is where the lower catenoid, tau1 = h*cosh(tau1) and c = h/tau1, has
    the disks' area: h*c + c^2*sinh(tau1)*cosh(tau1) = 1, in units of 2*pi.
    """
    with mpmath.workdps(40):
        tau_star = mpmath.findroot(lambda t: 1 - t * mpmath.tanh(t), 1.2)

        def area_excess(h):
            tau1 = mpmath.findroot(
                lambda t: t - h * mpmath.cosh(t), (mpmath.mpf(0.001), tau_star), solver="anderson"
            )
            c = h / tau1
            return h * c + c * mpmath.sinh(tau1) * c * mpmath.cosh(tau1) - 1

        h_g = mpmath.findroot(area_excess, (mpmath.mpf(0.5), mpmath.mpf(0.55)), solver="anderson")
        return float(tau_star), float(tau_star / mpmath.cosh(tau_star)), float(h_g)


@functools.cache
def lambert_goldschmidt():
    """h_G = sqrt(W_0(1/e)), W_0 the principal Lambert W, as the double nearest its 50-digit value."""
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.lambertw(1 / mpmath.e)))


def jacobi_ground_energy(tau, intervals=4000):
    """Lowest Dirichlet eigenvalue of -d^2/ds^2 - 2/cosh^2 s on [-tau, tau], by finite differences.

    The 3-point Laplacian on equal steps ds makes a symmetric tridiagonal
    matrix, diagonal 2/ds^2 - 2/cosh^2 s and off-diagonal -1/ds^2; its
    lowest eigenvalue, which carries an O(ds^2) error, is bisected on the
    Sturm count (the negative pivots of the matrix less x) between the
    Gershgorin bounds -2 and 4/ds^2.
    """
    ds = 2.0 * tau / intervals
    inv = 1.0 / (ds * ds)
    diag = [2.0 * inv - _string_density(-tau + i * ds) for i in range(1, intervals)]

    def below(x):
        """The number of eigenvalues below x, less 1/2."""
        count, pivot = 0, 1.0
        for i, d in enumerate(diag):
            pivot = d - x - (inv * inv / pivot if i else 0.0)
            if pivot == 0.0:
                pivot = -1e-300
            count += pivot < 0.0
        return count - 0.5

    return bisect60(below, -2.0, 4.0 * inv)


def soliton_ground_state(tau, grid):
    """cosh(k s) - tanh(s) sinh(k s)/k at the float nodes grid, scaled to unit weighted norm.

    k in (0, 1) is the root of tanh(tau) tanh(k tau) = k, by mpmath's
    Anderson-Bjorck iteration on [0.05, 1], and the scale is the plain
    Simpson sum of (2/cosh^2 s) psi^2 on the same nodes; all at 50 digits
    and more, as the samples near +-tau cancel about tau/ln(10) of them.
    Returns (k, the samples) as floats; the end samples are exactly 0.
    """
    with mpmath.workdps(50 + int(tau)):
        t = mpmath.tanh(mpmath.mpf(tau))
        k = mpmath.findroot(
            lambda k: t * mpmath.tanh(k * tau) - k,
            (mpmath.mpf(0.05), mpmath.mpf(1)),
            solver="anderson",
        )
        s = [mpmath.mpf(float(x)) for x in grid]
        psi = [mpmath.cosh(k * x) - mpmath.tanh(x) * mpmath.sinh(k * x) / k for x in s]
        psi[0] = psi[-1] = mpmath.mpf(0)
        weighted = [2 / mpmath.cosh(x) ** 2 * p * p for x, p in zip(s, psi)]
        dx = (s[-1] - s[0]) / (len(s) - 1)
        norm = dx / 3 * (
            weighted[0] + 4 * mpmath.fsum(weighted[1:-1:2])
            + 2 * mpmath.fsum(weighted[2:-1:2]) + weighted[-1]
        )
        return float(k), np.array([float(p / mpmath.sqrt(norm)) for p in psi])


def branch_root(log_h, lo, hi):
    """The root of g(u) = log(h*cosh(e^u)) - u in [lo, hi] at 50 digits.

    log h is taken as the float log_h exactly, as a branch solve is handed
    it; mpmath's Anderson-Bjorck iteration keeps the bracket. Returns
    (u, tau = e^u, g'(u) = tau*tanh(tau) - 1), each the float nearest its
    50-digit value.
    """
    with mpmath.workdps(50):
        log_h = mpmath.mpf(log_h)
        u = mpmath.findroot(
            lambda u: mpmath.log(mpmath.cosh(mpmath.exp(u))) - u + log_h,
            (mpmath.mpf(lo), mpmath.mpf(hi)),
            solver="anderson",
        )
        tau = mpmath.exp(u)
        return float(u), float(tau), float(tau * mpmath.tanh(tau) - 1)


# Frozen values produced by the helpers above.
TAU_STAR = 1.199678640257734
H_STAR = 0.6627434193491816
TAU1_AT_04 = 0.4392042525017916
TAU2_AT_04 = 2.532248225294426
COSH_1 = 1.543080634815244
R_AT_1 = 5.626860407847018
THIRD_VARIATION_CRITICAL = 6.5459531924140055


def _legendre(n, x):
    """P_n(x) and the second-kind Q_n(x) = P_n(x) atanh(x) - W_{n-1}(x), |x| < 1.

    P_k by Bonnet's recurrence; W_{n-1} = sum_{k=1..n} P_{k-1} P_{n-k} / k.
    """
    p = [1.0, x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    w = sum(p[k - 1] * p[n - k] / k for k in range(1, n + 1))
    return p[n], p[n] * math.atanh(x) - w


@functools.cache
def legendre_pins(n_max=8):
    """Exact string eigenvalues: (tau, k, lam) with lam = n(n+1)/2 for n <= n_max.

    With x = tanh s and lam = nu(nu+1)/2 the string equation
    psi'' + lam (2/cosh^2 s) psi = 0 is Legendre's equation, solved by
    P_n(tanh s) and Q_n(tanh s) for integer nu = n. Each zero x0 in (0, 1) of
    either vanishes at both ends of [-tau, tau], tau = atanh x0, by parity, so
    lam is exactly the k-th Dirichlet eigenvalue there, where k - 1 is the
    number of zeros inside (-x0, x0). The zeros are bracketed on a 0.01 grid
    in s and bisected to adjacent floats. Sorted by (tau, k).
    """
    pins = []
    for n in range(1, n_max + 1):
        for kind in (0, 1):
            f = lambda s: _legendre(n, math.tanh(s))[kind]
            # P_n is odd for odd n, Q_n for even n: then 0 is a zero too
            zero_at_origin = (n + kind) % 2 == 1
            grid = [0.01 * i for i in range(1, 401)]
            zeros = []
            for lo, hi in zip(grid, grid[1:]):
                if (f(lo) < 0.0) != (f(hi) < 0.0):
                    zeros.append(_bisect_to_floats(f, lo, hi))
            for i, tau in enumerate(zeros):
                pins.append((tau, 2 * i + 1 + zero_at_origin, n * (n + 1) / 2.0))
    return sorted(pins)


def _bisect_to_floats(f, lo, hi):
    """Halve a sign-changing bracket until no float lies between its ends."""
    neg_lo = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (f(mid) < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid


def _tanh_exactly(tau):
    """tanh(tau) as an mpf carrying 1 - tanh(tau) ~ 2 exp(-2 tau) to 40 digits.

    At 50 digits the mpmath functions then form 1 - x from it without
    cancellation: the subtraction of two close mpfs is exact.
    """
    with mpmath.workdps(40 + int(2.0 * tau / math.log(10.0))):
        return mpmath.tanh(mpmath.mpf(tau))


def legendre_characteristic(tau, nu):
    """(psi_e, psi_o) at s = tau, lambda = nu(nu+1)/2, from mpmath's Ferrers functions.

    psi_e = cos(pi nu/2) P_nu(x) - (2/pi) sin(pi nu/2) Q_nu(x) and
    psi_o = (pi/2) sin(pi nu/2) P_nu(x) + cos(pi nu/2) Q_nu(x), x = tanh(tau),
    with legenp/legenq of type 2 at 50 digits; mpf values. psi_e is even in
    s and psi_o odd, so lambda is a Dirichlet eigenvalue on [-tau, tau]
    exactly where one of them vanishes.
    """
    x = _tanh_exactly(tau)
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        p = mpmath.legenp(nu, 0, x, type=2)
        q = mpmath.legenq(nu, 0, x, type=2)
        cos, sin = mpmath.cospi(nu / 2), mpmath.sinpi(nu / 2)
        return cos * p - 2 / mpmath.pi * sin * q, mpmath.pi / 2 * sin * p + cos * q


def characteristic_pair(tau, nu, ferrers):
    """(psi_e, w*psi_o) from legendre_characteristic on one of the library's two scales.

    The Ferrers scale with w = 2/pi, or the x^2 form's, psi_e(0) = 1 and
    psi_o'(0) = 1, with w = sqrt(nu(nu+1)). DLMF 14.5.1-14.5.4 give the
    Ferrers psi_e(0) = G/sqrt(pi) and psi_o'(0) = sqrt(pi)/G, with
    G = Gamma(nu/2 + 1/2)/Gamma(nu/2 + 1); mpf values.
    """
    even, odd = legendre_characteristic(tau, nu)
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        if ferrers:
            return even, 2 / mpmath.pi * odd
        g = mpmath.gamma(nu / 2 + 0.5) / mpmath.gamma(nu / 2 + 1) / mpmath.sqrt(mpmath.pi)
        return even / g, mpmath.sqrt(nu * (nu + 1)) * g * odd


def string_eigenvalue(tau, k, guess):
    """The exact eigenvalue nearest guess among the roots of k's characteristic function.

    psi_e(tau) for odd k, psi_o(tau) for even k (legendre_characteristic),
    solved for nu by mpmath's secant from nu(guess) at 50 digits; returns
    the float nearest nu(nu+1)/2. The guess fixes which root: this checks
    a value, not that it is the k-th.
    """
    nu0 = (math.sqrt(1.0 + 8.0 * guess) - 1.0) / 2.0
    with mpmath.workdps(50):
        nu = mpmath.findroot(
            lambda nu: legendre_characteristic(tau, nu)[1 - k % 2],
            (mpmath.mpf(nu0), mpmath.mpf(nu0) * (1 + mpmath.mpf(10) ** -9)),
            solver="secant",
            tol=mpmath.mpf(10) ** -40,
        )
        return float(nu * (nu + 1) / 2)
