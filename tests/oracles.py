"""Independent reference implementations used to cross-check the library.

Everything here is deliberately primitive: plain bisection with a fixed
halving count, simple finite differences, plain Simpson sums, a scalar
step-by-step RK4 loop, Sturm counts in floats and in 40 digits, a
tridiagonal solve in rationals, and 40-, 50- and 60-digit mpmath roots and
closed forms. None of it calls into soapfilm internals.
"""

import functools
import math
from fractions import Fraction

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


def finite_difference_count(tau, lam, intervals=4096):
    """How many eigenvalues of the 3-point finite-difference string problem lie below lam.

    -psi_(i-1) + 2 psi_i - psi_(i+1) = mu (2/cosh^2 s_i) psi_i, mu = lam ds^2,
    at the nodes s_i = -tau + i ds of `intervals` equal steps with psi = 0 at
    both ends: the sign changes of psi_1..psi_intervals from psi_0 = 0,
    psi_1 = 1, over the whole grid. The recurrence is stepped on the slope
    D_i = psi_i - psi_(i-1), which keeps mu's relative accuracy where 2 - mu
    rho would round it away. Unscaled: for the low modes only. Once psi
    overflows the count is wrong (14 for 21 at tau = 1e4 just above
    lambda_20), and overflow leaves psi inf or NaN to the end, so a
    non-finite end raises ValueError.
    """
    ds = 2.0 * tau / intervals
    mu = lam * ds * ds
    psi, slope, count = 1.0, 1.0, 0
    for rho in _node_density(tau, intervals):
        slope -= mu * rho * psi
        new = psi + slope
        count += (new < 0.0) != (psi < 0.0)
        psi = new
    if not math.isfinite(psi):
        raise ValueError(f"psi overflows at lam={lam!r}, tau={tau!r}: the count is unreliable")
    return count


def mpmath_sturm_count(tau, lam, intervals=4096):
    """finite_difference_count in 40-digit arithmetic, with rho = 2/cosh^2 s formed there too.

    mpmath's exponent range is unbounded, so psi never overflows and the
    count holds for every mode; a count takes about 0.1 s.
    """
    with mpmath.workdps(40):
        ds = 2 * mpmath.mpf(tau) / intervals
        mu = mpmath.mpf(lam) * ds * ds
        psi, slope, count = mpmath.mpf(1), mpmath.mpf(1), 0
        for i in range(1, intervals):
            slope -= mu * (2 / mpmath.cosh(i * ds - tau) ** 2) * psi
            new = psi + slope
            count += (new < 0) != (psi < 0)
            psi = new
        return count


@functools.lru_cache(maxsize=4)
def _node_density(tau, intervals):
    """2/cosh^2 s at the interior nodes -tau + i ds of `intervals` equal steps."""
    ds = 2.0 * tau / intervals
    return tuple(_string_density(-tau + i * ds) for i in range(1, intervals))


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

    k in (0, 1) is the root of tanh(tau) tanh(k tau)/k = 1, by mpmath's
    Anderson-Bjorck iteration on [1e-12, 1]: the left side falls from about
    tau tanh(tau) > 1 there, and k = 0, a root of the undivided equation,
    is none of it, so the root is found as near tau_star as k^2 = 2.5e-9
    (tau_star + 1e-9). The scale is the plain
    Simpson sum of (2/cosh^2 s) psi^2 on the same nodes; all at 50 digits
    and more, as the samples near +-tau cancel about tau/ln(10) of them.
    Returns (k, the samples) as floats; the end samples are exactly 0.
    """
    with mpmath.workdps(50 + int(tau)):
        t = mpmath.tanh(mpmath.mpf(tau))
        k = mpmath.findroot(
            lambda k: t * mpmath.tanh(k * tau) / k - 1,
            (mpmath.mpf(1e-12), mpmath.mpf(1)),
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


def _branch_u(log_h, lo, hi):
    """The root u of g(u) = log(cosh(e^u)) - u + log_h in [lo, hi], at the working precision."""
    return mpmath.findroot(
        lambda u: mpmath.log(mpmath.cosh(mpmath.exp(u))) - u + log_h,
        (mpmath.mpf(lo), mpmath.mpf(hi)),
        solver="anderson",
        maxsteps=200,
    )


def branch_root(log_h, lo, hi):
    """The root of g(u) = log(h*cosh(e^u)) - u in [lo, hi] at 50 digits.

    log h is taken as the float log_h exactly, as a branch solve is handed
    it; mpmath's Anderson-Bjorck iteration keeps the bracket. Returns
    (u, tau = e^u, g'(u) = tau*tanh(tau) - 1), each the float nearest its
    50-digit value.
    """
    with mpmath.workdps(50):
        u = _branch_u(mpmath.mpf(log_h), lo, hi)
        tau = mpmath.exp(u)
        return float(u), float(tau), float(tau * mpmath.tanh(tau) - 1)


def branch_area(h, upper):
    """The film area 2*pi*(h^2/T + tanh T) at the 50-digit root T on one branch.

    T solves h*cosh(T) = T, the upper root if upper, else the lower one,
    with log h exact rather than the float a branch solve is handed, so
    both roots exist at every double up to h_star (the fold lies 8.2e-18
    above it). u = log T is bracketed by u* = log tau_star, at 50 digits,
    where g < 0, and by log h - 1 below u_1 or log(2*log(2/h) + 2) above
    u_2, where g > 0 (cosh T >= e^T/2). The area is the float nearest its
    50-digit value.
    """
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        tau = _branch_tau(h, upper)
        return float(2 * mpmath.pi * (h * h / tau + mpmath.tanh(tau)))


def _branch_tau(h, upper):
    """branch_area's root T for an mpf h, at the caller's working precision."""
    log_h = mpmath.log(h)
    u_star = mpmath.log(mpmath.findroot(lambda t: 1 - t * mpmath.tanh(t), 1.2))
    if upper:
        return mpmath.exp(_branch_u(log_h, u_star, mpmath.log(2 * mpmath.log(2 / h) + 2)))
    return mpmath.exp(_branch_u(log_h, log_h - 1, u_star))


def converged_discrete_area(h, n):
    """The discrete area at the discrete minimum near the lower catenoid, to O(dx^4).

    A + (pi*T/6)*dx^2, with A = 2*pi*(h^2/T + tanh T) the lower branch's
    area at its 50-digit root T (as in branch_area) and dx = 2h/(n - 1) for
    n nodes. Derivation: on a segment of half-width e about its midpoint,
    with y and its derivatives taken there and w = sqrt(1 + y'^2), the mean
    of the end radii is y + y''*e^2/2 and the chord slope y' + y'''*e^2/6,
    so the segment's 2*pi*2e*ybar*sqrt(1 + m^2) is 2*pi*(2e*y*w +
    e^3*(y''*w + y*y'*y'''/(3w))) + O(e^5), while the area it stands for is
    2*pi*(2e*y*w + e^3*(y*w)''/3) + O(e^5). On y = c*cosh(x/c), where w =
    y/c, y'' = y/c^2 and y''' = y'/c^2, the excess is 2*pi*e^3*(cosh^2 -
    sinh^2)/(3c) = 2*pi*e^3/(3c) on every segment, and the 2h/dx segments
    add up to (pi*h/(6c))*dx^2 = (pi*T/6)*dx^2. The sampled catenoid lies
    O(dx^2) from the discrete minimum, where the discrete area is
    stationary, so the two areas differ by O(dx^4). That remainder is
    bounded by measurement, not derived: each test that uses this
    reference states the worst error it measured.
    """
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        tau = _branch_tau(h, False)
        dx = 2 * h / (n - 1)
        return float(2 * mpmath.pi * (h * h / tau + mpmath.tanh(tau) + tau * dx * dx / 12))


def laplacian_solve_exact(c, g):
    """K^-1 g in rationals, K the Dirichlet Laplacian with conductances c.

    K has diagonal c_i + c_(i+1) and off-diagonal -c_(i+1) on the len(g)
    interior nodes; plain elimination in Fractions, with no rounding.
    """
    c = [Fraction(v) for v in c]
    pivots, forward = [c[0] + c[1]], [Fraction(g[0])]
    for i in range(1, len(g)):
        pivots.append(c[i] + c[i + 1] - c[i] ** 2 / pivots[-1])
        forward.append(Fraction(g[i]) + c[i] / pivots[-2] * forward[-1])
    x = [forward[-1] / pivots[-1]]
    for i in range(len(g) - 2, -1, -1):
        x.insert(0, (forward[i] + c[i + 1] * x[0]) / pivots[i])
    return x


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


def ferrers_pair(tau, nu):
    """The Ferrers P_nu and Q_nu at x = tanh(tau), legenp/legenq of type 2 at 50 digits."""
    x = _tanh_exactly(tau)
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        return mpmath.legenp(nu, 0, x, type=2), mpmath.legenq(nu, 0, x, type=2)


def legendre_characteristic(tau, nu):
    """(psi_e, psi_o) at s = tau, lambda = nu(nu+1)/2, from mpmath's Ferrers functions.

    psi_e = cos(pi nu/2) P_nu(x) - (2/pi) sin(pi nu/2) Q_nu(x) and
    psi_o = (pi/2) sin(pi nu/2) P_nu(x) + cos(pi nu/2) Q_nu(x), x = tanh(tau),
    with P and Q from ferrers_pair; mpf values. psi_e is even in s and psi_o
    odd, so lambda is a Dirichlet eigenvalue on [-tau, tau] exactly where
    one of them vanishes.
    """
    p, q = ferrers_pair(tau, nu)
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        cos, sin = mpmath.cospi(nu / 2), mpmath.sinpi(nu / 2)
        return cos * p - 2 / mpmath.pi * sin * q, mpmath.pi / 2 * sin * p + cos * q


def characteristic_angle(tau, nu, ferrers):
    """The angle of the library's pair (psi_e, w psi_o) less (t + 1) pi/2, at 50 digits.

    On the Ferrers scale, w = 2/pi and t = nu: the pair is (P, (2/pi) Q)
    turned by pi nu/2, so the angle is atan2(-P, (2/pi) Q) with P and Q
    from ferrers_pair. On the x^2 form's, psi_e(0) = 1 and psi_o'(0) = 1,
    w = sqrt(nu(nu+1)) and t = 0: DLMF 14.5.1-14.5.4 give the Ferrers
    psi_e(0) = G/sqrt(pi) and psi_o'(0) = sqrt(pi)/G, with
    G = Gamma(nu/2 + 1/2)/Gamma(nu/2 + 1), and the angle is
    atan2(-psi_e, w psi_o) with legendre_characteristic's pair rescaled.
    An mpf in (-pi, pi].
    """
    if ferrers:
        p, q = ferrers_pair(tau, nu)
        with mpmath.workdps(50):
            return mpmath.atan2(-p, 2 / mpmath.pi * q)
    even, odd = legendre_characteristic(tau, nu)
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        g = mpmath.gamma(nu / 2 + 0.5) / mpmath.gamma(nu / 2 + 1) / mpmath.sqrt(mpmath.pi)
        return mpmath.atan2(-even / g, mpmath.sqrt(nu * (nu + 1)) * g * odd)


def integer_degree_angle(tau, n, ferrers):
    """characteristic_angle at an integer degree n in floats, from _legendre's P_n and Q_n.

    cos and sin of pi n/2 are exact there, and the x^2 form's scale is a
    ratio of math.gamma values.
    """
    p, q = _legendre(n, math.tanh(tau))
    if ferrers:
        return math.atan2(-p, q / (0.5 * math.pi))
    cos, sin = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]
    even = cos * p - 2.0 / math.pi * sin * q
    odd = 0.5 * math.pi * sin * p + cos * q
    g = math.gamma(n / 2 + 0.5) / math.gamma(n / 2 + 1) / math.sqrt(math.pi)
    return math.atan2(-even / g, math.sqrt(n * (n + 1)) * g * odd)


def large_tau_ground_eigenvalue(tau):
    """lambda_1 where exp(-2 tau) is negligible (tau >= 40), at 50 digits.

    As x = tanh(tau) -> 1, P_nu(x) -> 1 and Q_nu(x) -> tau - gamma -
    digamma(nu + 1), each up to O(exp(-2 tau)) (DLMF 14.8.1 and 14.8.3, with
    ln(2/(1 - x))/2 = tau + O(exp(-2 tau))). So psi_e(tau) = 0 reads
    tan(pi nu/2) (tau - gamma - digamma(nu + 1)) = pi/2, solved by mpmath's
    findroot from nu = 1/tau; returns the float nearest nu(nu + 1)/2.
    """
    with mpmath.workdps(50):
        tau = mpmath.mpf(tau)

        def condition(nu):
            q = tau - mpmath.euler - mpmath.digamma(nu + 1)
            return mpmath.tan(mpmath.pi * nu / 2) * q - mpmath.pi / 2

        nu = mpmath.findroot(condition, 1 / tau)
        return float(nu * (nu + 1) / 2)


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


def centre_series_eigenvalue(tau, k, guess):
    """string_eigenvalue from the hypergeometric series about s = 0, for small tau.

    psi_e = 2F1(-nu/2, (nu+1)/2; 1/2; x^2) for odd k and
    psi_o = x*2F1((1-nu)/2, nu/2+1; 3/2; x^2) for even k, x = tanh(tau), with
    mpmath's hyp2f1 at 60 digits; the root in nu by mpmath's secant from
    nu(guess), as in string_eigenvalue. Where nu*x stays bounded, that is
    at small tau and large k, these converge where legenp/legenq do not.
    """
    nu0 = (math.sqrt(1.0 + 8.0 * guess) - 1.0) / 2.0
    with mpmath.workdps(60):
        x2 = mpmath.tanh(mpmath.mpf(tau)) ** 2
        half = mpmath.mpf(1) / 2

        def psi(nu):
            if k % 2:
                return mpmath.hyp2f1(-nu / 2, (nu + 1) / 2, half, x2)
            return mpmath.hyp2f1((1 - nu) / 2, nu / 2 + 1, 3 * half, x2)

        nu = mpmath.findroot(
            psi,
            (mpmath.mpf(nu0), mpmath.mpf(nu0) * (1 + mpmath.mpf(10) ** -9)),
            solver="secant",
            tol=mpmath.mpf(10) ** -50,
        )
        return float(nu * (nu + 1) / 2)
