import math

import numpy as np
import pytest

from soapfilm.errors import DomainError
from soapfilm.extremals import critical_constants, critical_extremal, solve_branches
from soapfilm.grids import TestFunction, composite_simpson, sampled_derivative
from soapfilm.spectrum import negative_direction
from soapfilm.variation import (
    _ground_state,
    Classification,
    area_along_direction,
    eta_from_psi,
    mu,
    mu_prime,
    q_form,
    q_form_factored,
    taylor_probe,
    third_variation,
)

from oracles import (
    TAU_STAR,
    THIRD_VARIATION_CRITICAL,
    central_diff,
    riccati_residual,
    soliton_ground_state,
)


def _sine_psi(tau, n=2049, k=1):
    return TestFunction.sample(lambda s: np.sin(k * np.pi * (s + tau) / (2.0 * tau)), tau, n)


def test_mu_basics():
    assert mu(0.0) == 1.0
    assert abs(mu(TAU_STAR)) <= 1e-12
    assert abs(mu(-TAU_STAR)) <= 1e-12
    rng = np.random.default_rng(3)
    s = rng.uniform(-3.0, 3.0, size=40)
    np.testing.assert_allclose(mu(s), mu(-s), rtol=0.0, atol=1e-15)
    assert mu(2.0) < 0.0 < mu(0.5)


def test_mu_prime_matches_finite_difference():
    for s in (-1.5, -0.3, 0.0, 0.7, 2.2):
        fd = central_diff(mu, s, 1e-6)
        np.testing.assert_allclose(mu_prime(s), fd, rtol=0.0, atol=1e-9)


def test_riccati_residual_small_inside_root_interval():
    # mu'/mu solves the Riccati companion of the Jacobi equation
    assert riccati_residual(mu, mu_prime, 0.0) <= 1e-8
    assert riccati_residual(mu, mu_prime, 0.9, fd_step=1e-5) <= 1e-7
    assert riccati_residual(mu, mu_prime, -0.9, fd_step=1e-5) <= 1e-7


def test_q_form_signs_by_interval_width():
    # Narrow interval: positive on every admissible direction we try.
    assert q_form(_sine_psi(0.8)) > 0.0
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        fn = lambda s: sum(
            c * np.sin((k + 1) * np.pi * (s + 0.8) / 1.6) for k, c in enumerate(coeffs)
        )
        assert q_form(TestFunction.sample(fn, 0.8, 513)) > 0.0
    # Wide interval: the ground state of the Jacobi operator is negative.
    psi_neg = negative_direction(2.0)
    assert q_form(psi_neg) < 0.0


def test_q_form_vanishes_on_balance_function_at_critical():
    psi = TestFunction.sample(mu, TAU_STAR, 4097)
    dpsi = sampled_derivative(psi.values, psi.spacing)
    scale = composite_simpson(dpsi * dpsi, psi.spacing)
    assert abs(q_form(psi)) <= 1e-4 * scale


def test_q_form_richardson_rate():
    vals = [q_form(_sine_psi(1.0, n=n)) for n in (129, 257, 513)]
    fine = q_form(_sine_psi(1.0, n=4097))
    e1, e2 = abs(vals[0] - fine), abs(vals[1] - fine)
    e3 = abs(vals[2] - fine)
    assert 3.5 <= e1 / e2 <= 4.5
    assert 3.5 <= e2 / e3 <= 4.5


def test_factored_form_matches_q_form():
    cases = [
        _sine_psi(0.5, n=8193),
        _sine_psi(1.0, n=8193),
        _sine_psi(TAU_STAR, n=8193, k=4),
    ]
    for psi in cases:
        q = q_form(psi)
        qf = q_form_factored(psi)
        assert qf >= 0.0
        np.testing.assert_allclose(qf, q, rtol=1e-6, atol=0.0)


def test_factored_form_rejects_wide_interval():
    with pytest.raises(DomainError):
        q_form_factored(_sine_psi(1.5))


@pytest.mark.parametrize("h, n", [(0.45, 65), (0.05, 513)])
def test_ground_state_on_a_runs_nodes_matches_mpmath(h, n):
    # minimize's upper_perturbed start samples the closed form at s = x/c,
    # off negative_direction's 2049 nodes; at odd n the library's Simpson
    # norm is the oracle's plain one
    upper = solve_branches(h)[1]
    s = np.linspace(-h, h, n) / upper.c
    want = soliton_ground_state(upper.tau, s)[1]
    assert np.max(np.abs(_ground_state(upper.tau, s) - want)) <= 1e-12


def test_eta_from_psi_scaling():
    e = critical_extremal()
    psi = TestFunction.sample(mu, TAU_STAR, 2049)
    eta = eta_from_psi(psi, e)
    assert eta.values[0] == 0.0 and eta.values[-1] == 0.0
    np.testing.assert_allclose(eta.halfwidth, e.h, rtol=0.0, atol=1e-15)
    s = psi.grid[1:-1]
    np.testing.assert_allclose(
        eta.values[1:-1], mu(s) * np.cosh(s), rtol=0.0, atol=1e-13
    )


def test_eta_from_psi_rejects_mismatched_interval():
    e = critical_extremal()
    with pytest.raises(DomainError):
        eta_from_psi(_sine_psi(1.0), e)


def test_area_along_direction_at_zero_is_area():
    lower, _ = solve_branches(0.4)
    psi = _sine_psi(lower.tau, n=4097)
    a0 = area_along_direction(lower, psi, 0.0)
    np.testing.assert_allclose(a0, 4.883793201931079, rtol=1e-6, atol=0.0)


def test_area_along_direction_rejects_pinched_profile():
    lower, _ = solve_branches(0.4)
    psi = _sine_psi(lower.tau, n=513)
    with pytest.raises(DomainError):
        area_along_direction(lower, psi, -5.0)


def test_probe_first_derivative_vanishes_on_extremals():
    # Stationarity: the linear Taylor coefficient sits at quadrature noise,
    # far below the area scale.
    for branch in (0, 1):
        e = solve_branches(0.4)[branch]
        psi = _sine_psi(e.tau, n=8193)
        report = taylor_probe(e, psi, 0.05)
        a0 = area_along_direction(e, psi, 0.0)
        assert abs(report.raw_d1) <= 1e-6 * a0


def test_probe_classifies_branches():
    lower, upper = solve_branches(0.4)
    psi1 = _sine_psi(lower.tau, n=2049)
    rep1 = taylor_probe(lower, psi1, 0.04)
    assert rep1.classification is Classification.POSITIVE_DEFINITE_SAMPLE
    assert rep1.q_form > 0.0

    psi2 = negative_direction(upper.tau)
    rep2 = taylor_probe(upper, psi2, 0.04)
    assert rep2.classification is Classification.NEGATIVE_DIRECTION
    assert rep2.q_form < 0.0


def test_probe_zero_direction_on_null_perturbation():
    lower, _ = solve_branches(0.4)
    psi = TestFunction.sample(lambda s: np.zeros_like(s), lower.tau, 257)
    rep = taylor_probe(lower, psi, 0.2)
    assert rep.classification is Classification.ZERO_DIRECTION
    assert rep.q_form == 0.0
    # The stencils divide float roundoff by delta^2 and delta^3, so "zero"
    # means zero at that scale.
    assert abs(rep.raw_d2) <= 1e-10
    assert abs(rep.raw_d3) <= 1e-9


def test_probe_requires_a_positive_finite_t_max():
    lower, _ = solve_branches(0.4)
    psi = _sine_psi(lower.tau, n=257)
    for t_max in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            taylor_probe(lower, psi, t_max)
    # a psi grid too coarse for the extremal: the first variation is not ~0
    with pytest.raises(DomainError):
        taylor_probe(lower, _sine_psi(lower.tau, n=33), 0.1)


@pytest.mark.parametrize("h", [0.4, 1e-3, 1e-5])
def test_probe_first_variation_guard_is_relative_at_every_scale(h):
    # raw_d1/S is about 2e-3 on 17 samples and 1.6e-5 on 257 at each of these
    # h, so a bound relative to S rejects the first and takes the second at
    # every scale; one floored at 1 took the coarse psi below h ~ 0.08
    lower, _ = solve_branches(h)
    with pytest.raises(DomainError, match="first variation"):
        taylor_probe(lower, _sine_psi(lower.tau, n=17), 1e-3 * h)
    report = taylor_probe(lower, _sine_psi(lower.tau, n=257), 1e-3 * h)
    assert report.classification is Classification.POSITIVE_DEFINITE_SAMPLE


def test_probe_q_form_is_q_form_of_the_callers_psi():
    lower, upper = solve_branches(0.4)
    e = critical_extremal()
    cases = [
        (e, TestFunction.sample(mu, e.tau, 2049)),
        (lower, _sine_psi(lower.tau)),
        (upper, negative_direction(upper.tau)),
    ]
    for extremal, psi in cases:
        assert taylor_probe(extremal, psi, 0.03).q_form == q_form(psi)


def test_quadratic_coefficient_proportional_to_q_form():
    # raw_d2 / q_form is one constant for every direction; its value is the
    # area normalization 2*pi*(1/2) circumference factor, numerically pi.
    lower, _ = solve_branches(0.4)
    rng = np.random.default_rng(23)
    ratios = []
    for trial in range(5):
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        fn = lambda s: sum(
            c * np.sin((k + 1) * np.pi * (s + lower.tau) / (2.0 * lower.tau))
            for k, c in enumerate(coeffs)
        )
        psi = TestFunction.sample(fn, lower.tau, 2049)
        rep = taylor_probe(lower, psi, 0.02)
        ratios.append(rep.raw_d2 / rep.q_form)
    ratios = np.array(ratios)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-3, atol=0.0)
    np.testing.assert_allclose(ratios, math.pi, rtol=1e-3, atol=0.0)


def test_third_variation_closed_form_at_critical():
    e = critical_extremal()
    psi = TestFunction.sample(mu, TAU_STAR, 8193)
    gamma = third_variation(e, psi)
    np.testing.assert_allclose(gamma, THIRD_VARIATION_CRITICAL, rtol=1e-4, atol=0.0)
    np.testing.assert_allclose(gamma, 6.54595, rtol=0.0, atol=1e-4)


def test_third_variation_matches_cubic_probe_coefficient():
    e = critical_extremal()
    psi = TestFunction.sample(mu, TAU_STAR, 8193)
    rep = taylor_probe(e, psi, 0.03)
    np.testing.assert_allclose(rep.raw_d3, third_variation(e, psi), rtol=1e-3, atol=0.0)


def test_third_variation_zero_on_null_perturbation():
    e = critical_extremal()
    psi = TestFunction.sample(lambda s: np.zeros_like(s), e.tau, 257)
    assert third_variation(e, psi) == 0.0


def test_critical_area_grows_both_ways():
    # Degenerate saddle: area increases for t of both signs along the
    # balance direction scaled suitably, g(t) - g(0) ~ gamma t^3 near 0 means
    # one side decreases; check the cubic signature g(t)+g(-t)-2g(0) > 0 fails
    # at cubic order (even part is quartic-small) while odd part dominates.
    e = critical_extremal()
    psi = TestFunction.sample(mu, TAU_STAR, 4097)
    t = 0.02
    g0 = area_along_direction(e, psi, 0.0)
    gp = area_along_direction(e, psi, t)
    gm = area_along_direction(e, psi, -t)
    odd = 0.5 * (gp - gm)
    even = 0.5 * (gp + gm) - g0
    gamma = THIRD_VARIATION_CRITICAL
    np.testing.assert_allclose(odd, gamma * t**3, rtol=5e-3, atol=0.0)
    assert abs(even) < abs(odd) * 0.2
