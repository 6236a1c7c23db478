"""Second and third variation of the area functional along a catenoid.

The substitution s = x/C, eta(x) = psi(s) cosh(s) reduces the second
variation to the quadratic form

    Q[psi] = integral of (psi'^2 - 2 psi^2 / cosh^2 s) ds

on [-tau, tau] with Dirichlet ends (a positive prefactor is dropped; the
sign and zero set carry the content, and taylor_probe recovers the raw
second t-derivative for calibration). mu(s) = 1 - s tanh(s) solves the
associated Euler equation, vanishes exactly at +-tau_star, and factorizes Q
as a perfect square for tau <= tau_star. The probes along a direction
(area_along_direction, taylor_probe, third_variation) take it as psi and
form eta through eta_from_psi. The functions import numpy themselves, so it
loads on the first array call, not with the module.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, Union

from .energetics import area_quadrature
from .errors import DomainError
from .extremals import Extremal, _Record, critical_constants, profile
from .grids import TestFunction, composite_simpson, sampled_derivative

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Classification",
    "VariationReport",
    "mu",
    "mu_prime",
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


class VariationReport(
    _Record, namedtuple("VariationReport", "q_form raw_d1 raw_d2 raw_d3 classification")
):
    """q_form value and raw t-derivatives of S along one direction.

    raw_d1 is the numeric first derivative (vanishes on extremals up to
    stencil noise); raw_d2 and raw_d3 are the quadratic and cubic Taylor
    coefficients, i.e. the second and third t-derivatives over 2! and 3!.
    """

    __slots__ = ()


def mu(s: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """1 - s*tanh(s): even, equals 1 at 0, vanishes exactly at +-tau_star.

    Elementwise over any float input: +-inf give -inf, NaN gives NaN.
    """
    import numpy as np
    arr = np.asarray(s, dtype=float)
    out = 1.0 - arr * np.tanh(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def mu_prime(s: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Derivative of mu: -(tanh(s) + s/cosh(s)^2).

    Elementwise over any float input: s/cosh(s)^2 takes its limit 0 where
    cosh(s)^2 overflows, so +-inf give -+1; NaN gives NaN.
    """
    import numpy as np
    arr = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):
        cosh_sq = np.cosh(arr) ** 2
    ratio = np.divide(arr, cosh_sq, out=np.zeros_like(arr), where=np.isfinite(cosh_sq))
    out = -(np.tanh(arr) + ratio)
    if arr.ndim == 0:
        return float(out)
    return out


def _density(s):
    """The string density 2/cosh^2 s, elementwise; 0 where cosh^2 overflows."""
    import numpy as np
    with np.errstate(over="ignore"):
        return 2.0 / np.cosh(s) ** 2


def _ground_state(tau: float, s: np.ndarray) -> np.ndarray:
    """negative_direction's samples at the nodes s of [-tau, tau], Simpson-normed on s."""
    bound = critical_constants().tau_star + 1e-9
    if not tau > bound:
        raise DomainError(f"tau={tau!r} is not above tau_star + 1e-9 = {bound!r}")
    import numpy as np
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
    a = np.abs(s)
    # (kappa - tanh a)*exp(kappa*a), with kappa - tanh a = (1 - tanh a) - gap
    lead = 2.0 * np.exp((kappa - 2.0) * a) / (1.0 + np.exp(-2.0 * a))
    if gap > 0.0:
        lead -= np.exp(math.log(gap) + kappa * a)
    values = np.exp(-kappa * a) - lead * np.expm1(-2.0 * kappa * a) / (2.0 * kappa)
    values[0] = values[-1] = 0.0
    norm = composite_simpson(_density(s) * values * values, (s[-1] - s[0]) / (s.size - 1))
    return values / math.sqrt(norm)


def q_form(psi: TestFunction) -> float:
    """Reduced second-variation form: integral of psi'^2 - 2 psi^2/cosh^2 s.

    Raises DomainError where the integrand overflows (psi'^2 on a grid as
    fine as 1e-306), as composite_simpson does.
    """
    import numpy as np
    dpsi = sampled_derivative(psi.values, psi.spacing)
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = dpsi * dpsi - _density(psi.grid) * psi.values * psi.values
    return composite_simpson(integrand, psi.spacing)


def q_form_factored(psi: TestFunction) -> float:
    """The same form as a manifest square: integral of (psi' - (mu'/mu) psi)^2.

    Valid only while mu keeps one sign on the interval, i.e. for half-width
    tau <= tau_star. psi/mu stays bounded there; within 1e-6 of the roots
    +-tau_star the quotient is replaced by its limit psi'/mu'. Raises
    DomainError where the integrand overflows, as q_form does.
    """
    tau_star = critical_constants().tau_star
    if psi.halfwidth > tau_star + 1e-12:
        raise DomainError(f"factored form needs halfwidth <= {tau_star}, got {psi.halfwidth!r}")
    import numpy as np
    s = psi.grid
    dpsi = sampled_derivative(psi.values, psi.spacing)
    m = mu(s)
    mp = mu_prime(s)
    near_root = np.abs(np.abs(s) - tau_star) < 1e-6
    ratio = np.empty_like(s)
    ratio[~near_root] = psi.values[~near_root] / m[~near_root]
    ratio[near_root] = dpsi[near_root] / mp[near_root]
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = (dpsi - mp * ratio) ** 2
    return composite_simpson(integrand, psi.spacing)


def eta_from_psi(psi: TestFunction, e: Extremal) -> TestFunction:
    """Map a direction psi(s) on [-tau, tau] to eta(x) = psi(x/C) cosh(x/C).

    eta's grid is psi's scaled by c = h/tau, so it ends at +-h to rounding
    and profile takes it. Raises DomainError unless psi's halfwidth is tau to
    within 1e-12 relative, and where cosh overflows on the grid (tau above
    about 710, the upper extremal below h ~ 6e-306).
    """
    if not abs(psi.halfwidth - e.tau) <= 1e-12 * e.tau:
        raise DomainError(
            f"psi spans [-{psi.halfwidth}, {psi.halfwidth}] but the extremal has tau={e.tau}"
        )
    import numpy as np
    x = psi.grid * (e.h / e.tau)
    with np.errstate(over="ignore", invalid="ignore"):
        values = psi.values * np.cosh(psi.grid)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"psi*cosh(s) overflows the float range at tau={e.tau!r}")
    # endpoint psi values are exactly 0, so these products are exact zeros
    return TestFunction(grid=x, values=values)


def area_along_direction(e: Extremal, psi: TestFunction, t: float) -> float:
    """Area of the perturbed surface y + t*eta, eta = eta_from_psi(psi, e).

    The quadrature runs on eta's grid. Raises DomainError unless t is
    finite, and where eta_from_psi and area_quadrature do (y + t*eta not
    positive, or overflowing).
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    import numpy as np
    eta = eta_from_psi(psi, e)
    with np.errstate(over="ignore"):
        y = profile(e, eta.grid) + t * eta.values
    return area_quadrature(eta.grid, y)


def taylor_probe(e: Extremal, psi: TestFunction, t_max: float) -> VariationReport:
    """Sample S[y + t*eta] and extract the first three Taylor coefficients.

    eta = eta_from_psi(psi, e), and the stencil step is t_max/8, so every
    evaluation keeps |t| <= 3*t_max/8. q_form is q_form(psi) itself. raw_d2
    and raw_d3 divide the stencil derivatives by 2! and 3!; the first
    derivative is checked against zero (these are extremals) and reported;
    above 1e-4*S, at every scale of h, it is a DomainError (psi too coarse).
    A step whose cube is not a normal float (t_max outside about
    [2.3e-102, 4.5e103], NaN included) is a DomainError too, as is whatever
    eta_from_psi rejects.
    """
    delta = t_max / 8.0
    if not sys.float_info.min <= delta * delta * delta < math.inf:
        raise DomainError(f"stencil step {delta!r}: its cube is not a normal float")
    import numpy as np
    eta = eta_from_psi(psi, e)
    y = profile(e, eta.grid)
    with np.errstate(over="ignore"):
        f = {k: area_quadrature(eta.grid, y + k * delta * eta.values) for k in range(-3, 4)}

    raw_d1 = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * delta)
    second = (-f[-2] + 16.0 * f[-1] - 30.0 * f[0] + 16.0 * f[1] - f[2]) / (12.0 * delta * delta)
    third = (
        -13.0 / 8.0 * (f[1] - f[-1]) + (f[2] - f[-2]) - 1.0 / 8.0 * (f[3] - f[-3])
    ) / delta**3
    # coarse grids leave O(dx^2) noise in the sampled areas, so this guard
    # only catches gross mismatches; tests pin the tight 1e-6*S bound
    if not abs(raw_d1) <= 1e-4 * f[0]:
        raise DomainError(f"first variation {raw_d1!r} not negligible on an extremal")

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


def third_variation(e: Extremal, psi: TestFunction) -> float:
    """Cubic Taylor coefficient of S[y + t*eta], eta = eta_from_psi(psi, e).

    Evaluates pi * integral of eta'^2/(1+y'^2)^(3/2) * (eta - y y' eta'/(1+y'^2))
    with y and y' analytic on the catenoid and eta' from centered differences.
    Equal to taylor_probe's raw_d3 up to discretization error. Raises
    DomainError where eta_from_psi does, and where the integrand overflows
    (steep eta at tiny h).
    """
    import numpy as np
    eta = eta_from_psi(psi, e)
    x = eta.grid
    s = x / e.c
    deta = sampled_derivative(eta.values, eta.spacing)
    with np.errstate(over="ignore", invalid="ignore"):
        y = e.c * np.cosh(s)
        yp = np.sinh(s)
        one_plus = np.cosh(s) ** 2
        integrand = deta * deta / one_plus**1.5 * (eta.values - y * yp * deta / one_plus)
    return math.pi * composite_simpson(integrand, eta.spacing)
