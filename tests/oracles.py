"""Independent reference implementations used to cross-check the library.

Everything here is deliberately primitive: plain bisection with a fixed
halving count, Taylor series summed to convergence, simple finite
differences, and a scalar step-by-step RK4 loop.  None of it calls into
soapfilm internals.
"""

import math

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
    dt = 2.0 * tau / n
    # lam * rho sampled on the half-step grid: index 2i is node i, 2i+1 its midpoint
    q = [lam * (2.0 / math.cosh(-tau + 0.5 * i * dt) ** 2) for i in range(2 * n + 1)]
    u = 0.0
    v = 1.0
    nodes = 0
    last_sign = 0
    half = 0.5 * dt
    sixth = dt / 6.0
    trajectory = [0.0]
    for i in range(n):
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


# Frozen values produced by the helpers above.
TAU_STAR = 1.199678640257734
H_STAR = 0.6627434193491816
TAU1_AT_04 = 0.4392042525017916
TAU2_AT_04 = 2.532248225294426
COSH_1 = 1.543080634815244
R_AT_1 = 5.626860407847018
THIRD_VARIATION_CRITICAL = 6.5459531924140055
