"""Second and third variation of the area functional along a catenoid.

The substitution s = x/C, eta(x) = psi(s) cosh(s) reduces the second
variation to the quadratic form

    Q[psi] = integral of (psi'^2 - 2 psi^2 / cosh^2 s) ds

on [-tau, tau] with Dirichlet ends (a positive prefactor is dropped; the
sign and zero set carry the content, and taylor_probe recovers the raw
second t-derivative for calibration). mu(s) = 1 - s tanh(s) solves the
associated Euler equation, vanishes exactly at +-tau_star, and factorizes Q
as a perfect square for tau <= tau_star.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .energetics import area_quadrature
from .errors import DomainError, GridMismatchError
from .extremals import Extremal, critical_constants, profile
from .grids import TestFunction, composite_simpson, sampled_derivative
from .spectrum import _density

__all__ = [
    "Classification",
    "VariationReport",
    "mu",
    "mu_prime",
    "riccati_residual",
    "q_form",
    "q_form_factored",
    "eta_from_psi",
    "area_along_direction",
    "taylor_probe",
    "third_variation",
]


class Classification(enum.Enum):
    """Sign verdict of the quadratic form on one sampled direction."""

    POSITIVE_DEFINITE_SAMPLE = "PositiveDefiniteSample"
    ZERO_DIRECTION = "ZeroDirection"
    NEGATIVE_DIRECTION = "NegativeDirection"


@dataclass(frozen=True)
class VariationReport:
    """q_form value and raw t-derivatives of S along one direction.

    raw_d1 is the numeric first derivative (vanishes on extremals up to
    stencil noise); raw_d2 and raw_d3 are the quadratic and cubic Taylor
    coefficients, i.e. the second and third t-derivatives over 2! and 3!.
    """

    q_form: float
    raw_d1: float
    raw_d2: float
    raw_d3: float
    classification: Classification


def mu(s: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """1 - s*tanh(s): even, equals 1 at 0, vanishes exactly at +-tau_star."""
    arr = np.asarray(s, dtype=float)
    out = 1.0 - arr * np.tanh(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def mu_prime(s: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Derivative of mu: -(tanh(s) + s/cosh(s)^2)."""
    arr = np.asarray(s, dtype=float)
    out = -(np.tanh(arr) + arr / np.cosh(arr) ** 2)
    if arr.ndim == 0:
        return float(out)
    return out


def riccati_residual(s: float, fd_step: float = 1e-4) -> float:
    """|w' + w^2 + 2/cosh^2(s)| for w = mu'/mu, with w' by central difference.

    Checks that the logarithmic derivative of mu satisfies the Riccati
    companion of the Jacobi equation. The quotient blows up at mu's roots, so
    s must stay at least 10 steps away from +-tau_star.
    """
    if fd_step <= 0.0:
        raise DomainError(f"fd_step must be positive, got {fd_step!r}")
    tau_star = critical_constants().tau_star
    if abs(s) >= tau_star - 10.0 * fd_step:
        raise DomainError(f"s={s!r} is inside the exclusion band around +-{tau_star}")

    def w(ss: float) -> float:
        return mu_prime(ss) / mu(ss)

    w_prime = (w(s + fd_step) - w(s - fd_step)) / (2.0 * fd_step)
    return float(abs(w_prime + w(s) ** 2 + _density(s)))


def q_form(psi: TestFunction) -> float:
    """Reduced second-variation form: integral of psi'^2 - 2 psi^2/cosh^2 s."""
    dpsi = sampled_derivative(psi.values, psi.spacing)
    integrand = dpsi * dpsi - _density(psi.grid) * psi.values * psi.values
    return composite_simpson(integrand, psi.spacing)


def q_form_factored(psi: TestFunction) -> float:
    """The same form as a manifest square: integral of (psi' - (mu'/mu) psi)^2.

    Valid only while mu keeps one sign on the interval, i.e. for half-width
    tau <= tau_star. psi/mu stays bounded there; within 1e-6 of the roots
    +-tau_star the quotient is replaced by its limit psi'/mu'.
    """
    tau_star = critical_constants().tau_star
    if psi.halfwidth > tau_star + 1e-12:
        raise DomainError(f"factored form needs halfwidth <= {tau_star}, got {psi.halfwidth!r}")
    s = psi.grid
    dpsi = sampled_derivative(psi.values, psi.spacing)
    m = mu(s)
    mp = mu_prime(s)
    near_root = np.abs(np.abs(s) - tau_star) < 1e-6
    ratio = np.empty_like(s)
    ratio[~near_root] = psi.values[~near_root] / m[~near_root]
    ratio[near_root] = dpsi[near_root] / mp[near_root]
    integrand = (dpsi - mp * ratio) ** 2
    return composite_simpson(integrand, psi.spacing)


def eta_from_psi(psi: TestFunction, e: Extremal) -> TestFunction:
    """Map a direction psi(s) on [-tau, tau] to eta(x) = psi(x/C) cosh(x/C)."""
    if abs(psi.halfwidth - e.tau) > 1e-12:
        raise GridMismatchError(
            f"psi spans [-{psi.halfwidth}, {psi.halfwidth}] but the extremal has tau={e.tau}"
        )
    x = psi.grid * e.c
    values = psi.values * np.cosh(psi.grid)
    # endpoint psi values are exactly 0, so these products are exact zeros
    return TestFunction(grid=x, values=values)


def _require_matching_interval(e: Extremal, eta: TestFunction) -> None:
    if abs(eta.halfwidth - e.h) > 1e-12 * max(1.0, e.h):
        raise GridMismatchError(
            f"eta spans [-{eta.halfwidth}, {eta.halfwidth}] but the extremal has h={e.h}"
        )


def area_along_direction(e: Extremal, eta: TestFunction, t: float) -> float:
    """Area of the perturbed surface y + t*eta, by quadrature on eta's grid."""
    _require_matching_interval(e, eta)
    y = profile(e, eta.grid) + t * eta.values
    return area_quadrature(eta.grid, y)


def _psi_from_eta(eta: TestFunction, e: Extremal) -> TestFunction:
    s = eta.grid / e.c
    values = eta.values / np.cosh(s)
    values[0] = 0.0
    values[-1] = 0.0
    return TestFunction(grid=s, values=values)


def taylor_probe(e: Extremal, eta: TestFunction, t_values: Sequence[float]) -> VariationReport:
    """Sample S[y + t*eta] and extract the first three Taylor coefficients.

    t_values fixes the probe scale: the stencil step is max|t|/8, so all
    evaluations stay inside the given range. The set must be symmetric about
    0. raw_d2 and raw_d3 divide the stencil derivatives by 2! and 3!; the
    first derivative is checked against zero (these are extremals) and
    reported.
    """
    _require_matching_interval(e, eta)
    t_arr = np.sort(np.asarray(list(t_values), dtype=float))
    if t_arr.size == 0 or t_arr[-1] <= 0.0:
        raise DomainError("t_values must contain positive entries")
    t_max = float(np.max(np.abs(t_arr)))
    if np.max(np.abs(t_arr + t_arr[::-1])) > 1e-12 * t_max:
        raise DomainError("t_values must be symmetric about 0")

    delta = t_max / 8.0
    f = {k: area_along_direction(e, eta, k * delta) for k in range(-3, 4)}

    raw_d1 = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * delta)
    second = (-f[-2] + 16.0 * f[-1] - 30.0 * f[0] + 16.0 * f[1] - f[2]) / (12.0 * delta * delta)
    third = (
        -13.0 / 8.0 * (f[1] - f[-1]) + (f[2] - f[-2]) - 1.0 / 8.0 * (f[3] - f[-3])
    ) / delta**3
    # coarse grids leave O(dx^2) noise in the sampled areas, so this guard
    # only catches gross mismatches; tests pin the tight 1e-6*S bound
    if abs(raw_d1) > 1e-4 * max(1.0, f[0]):
        raise AssertionError(f"first variation {raw_d1!r} not negligible on an extremal")

    psi = _psi_from_eta(eta, e)
    q = q_form(psi)
    dpsi = sampled_derivative(psi.values, psi.spacing)
    scale = composite_simpson(dpsi * dpsi, psi.spacing)
    tol = 1e-9 * scale
    if q > tol:
        verdict = Classification.POSITIVE_DEFINITE_SAMPLE
    elif q < -tol:
        verdict = Classification.NEGATIVE_DIRECTION
    else:
        verdict = Classification.ZERO_DIRECTION

    return VariationReport(
        q_form=q,
        raw_d1=raw_d1,
        raw_d2=0.5 * second,
        raw_d3=third / 6.0,
        classification=verdict,
    )


def third_variation(e: Extremal, eta: TestFunction) -> float:
    """Cubic Taylor coefficient of S[y + t*eta], by quadrature.

    Evaluates pi * integral of eta'^2/(1+y'^2)^(3/2) * (eta - y y' eta'/(1+y'^2))
    with y and y' analytic on the catenoid and eta' from centered differences.
    Equal to taylor_probe's raw_d3 up to discretization error.
    """
    _require_matching_interval(e, eta)
    x = eta.grid
    s = x / e.c
    y = e.c * np.cosh(s)
    yp = np.sinh(s)
    one_plus = np.cosh(s) ** 2
    deta = sampled_derivative(eta.values, eta.spacing)
    integrand = deta * deta / one_plus**1.5 * (eta.values - y * yp * deta / one_plus)
    return math.pi * composite_simpson(integrand, eta.spacing)
