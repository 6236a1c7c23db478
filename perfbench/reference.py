"""Independent 50-digit references for the benchmark's correctness checks.

Nothing here imports soapfilm: the branch parameters are solved in mpmath by
a safeguarded Newton iteration on t - h cosh t = 0, a different equation
form, algorithm and precision from the library's double-precision
bisection/secant on cosh(t)/t - 1/h.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp

mp.mp.dps = 50

_REL = mp.mpf("1e-30")


def _safe_newton(f, df, a, b, x):
    """Root of f in [a, b] (f(a) < 0 < f(b)) by Newton steps from x kept inside the bracket."""
    for _ in range(400):
        fx = f(x)
        if fx == 0:
            return x
        if fx < 0:
            a = x
        else:
            b = x
        d = df(x)
        step_ok = d != 0
        if step_ok:
            nx = x - fx / d
            step_ok = a <= nx <= b
        if not step_ok:
            nx = (a + b) / 2
        if abs(nx - x) <= _REL * abs(nx) or abs(b - a) <= _REL * abs(nx):
            return nx
        x = nx
    raise ArithmeticError(f"reference solve did not converge on [{a}, {b}]")


@functools.cache
def critical() -> tuple:
    """(tau_star, h_star) as mpf: the root of 1 - t tanh t and tau_star/cosh(tau_star)."""
    g = lambda t: t * mp.tanh(t) - 1
    dg = lambda t: mp.tanh(t) + t / mp.cosh(t) ** 2
    tau_star = _safe_newton(g, dg, mp.mpf(1), mp.mpf("1.5"), mp.mpf("1.2"))
    return tau_star, tau_star / mp.cosh(tau_star)


def h_star() -> float:
    return float(critical()[1])


def tau_star() -> float:
    return float(critical()[0])


def _start(h: float, a, b) -> mp.mpf:
    """Double-precision bisection, in log t, for a root of log t - log h - log cosh t in [a, b].

    Only a starting point: the 50-digit solve keeps its own bracket, so a
    poor start costs steps, never the root it finds.
    """
    g = lambda t: math.log(t) - math.log(h) - (t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0))
    a, b = float(a), float(b)
    negative_at_a = g(a) < g(b)
    for _ in range(100):
        m = math.exp(0.5 * (math.log(a) + math.log(b)))
        if not a < m < b:
            break
        if (g(m) < 0) == negative_at_a:
            a = m
        else:
            b = m
    return mp.mpf(min(max(m, a), b))


def branch_taus(h: float) -> tuple:
    """(tau1, tau2) as mpf for 0 < h < h_star: the roots of t - h cosh t."""
    ts = critical()[0]
    hh = mp.mpf(h)
    f = lambda t: t - hh * mp.cosh(t)
    df = lambda t: 1 - hh * mp.sinh(t)
    if f(ts) <= 0:
        return ts, ts
    # f < 0 at t = h (cosh > 1) and f > 0 at tau_star, so the bracket holds.
    tau1 = _safe_newton(f, df, hh, ts, _start(h, hh, ts))
    neg = lambda t: -f(t)
    dneg = lambda t: -df(t)
    hi = 2 * ts
    while f(hi) > 0:
        hi *= 2
    tau2 = _safe_newton(neg, dneg, ts, hi, _start(h, ts, hi))
    return tau1, tau2


def area(h: float, tau: float) -> float:
    """Closed-form catenoid area 2 pi h^2/tau + pi h^2 sinh(2 tau)/tau^2, evaluated exactly."""
    hh, t = mp.mpf(h), mp.mpf(tau)
    return float(2 * mp.pi * hh * hh / t + mp.pi * hh * hh * mp.sinh(2 * t) / (t * t))


def force(h: float, tau1) -> tuple:
    """(F, dF/dh) from the implicit derivative of F = -4 pi h / tau1(h)."""
    hh, t = mp.mpf(h), mp.mpf(tau1)
    dphi = mp.cosh(t) * (t * mp.tanh(t) - 1) / (t * t)
    dtau = -1 / (hh * hh * dphi)
    value = -4 * mp.pi * hh / t
    slope = -4 * mp.pi / t + 4 * mp.pi * hh * dtau / (t * t)
    return float(value), float(slope)


def tau_tolerance(h: float, tau) -> float:
    """Largest |tau - reference| a double-precision solve can be held to.

    Away from the fold the library promises relative accuracy; its equation
    phi(t) = 1/h is only known to a few ulps of 1/h, which near tau_star
    (phi' -> 0) limits tau to sqrt(2 * eps_f / phi''), about 1.5e-8 per ulp.
    """
    ts = critical()[0]
    t = mp.mpf(tau)
    eps_f = 4.0 * math.ulp(1.0 / h)
    dphi = abs(float(mp.cosh(t) * (t * mp.tanh(t) - 1) / (t * t)))
    d2phi = float(mp.cosh(ts) / ts ** 2 * (mp.tanh(ts) + ts / mp.cosh(ts) ** 2))
    conditioning = math.sqrt(2.0 * eps_f / d2phi)
    if dphi > 0.0:
        conditioning = min(conditioning, eps_f / dphi)
    return 1e-9 * float(t) + conditioning
