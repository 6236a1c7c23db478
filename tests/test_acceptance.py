"""Acceptance gate: the ten headline checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass;
each check also fails the suite through a plain assertion if its tolerance is
missed.
"""

import math

import numpy as np

from soapfilm.direct_min import InitPreset, Outcome, Profile, discrete_area, discrete_gradient, minimize
from soapfilm.energetics import area_quadrature, force, goldschmidt_constant
from soapfilm.extremals import (
    area_closed_form,
    critical_constants,
    critical_extremal,
    profile,
    small_h_asymptotics,
    solve_branches,
)
from soapfilm.grids import TestFunction
from soapfilm.spectrum import dense_eigenvalues, eigenvalues, negative_direction, shoot
from soapfilm.variation import area_along_direction, mu, mu_prime, q_form, taylor_probe, third_variation

from oracles import exact_rayleigh_quotient, richardson_diff, smooth_test_profiles, string_eigenvalue


def _verdict(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_c1_critical_half_distance():
    cc = critical_constants()
    residual = abs(1.0 - cc.tau_star * math.tanh(cc.tau_star))
    ok = abs(cc.h_star - 0.6627) <= 1e-4 and residual <= 1e-12
    _verdict(ok, "C1 critical half-distance", f"h*={cc.h_star:.10f}, residual={residual:.2e}")


def test_c2_goldschmidt_constant():
    h_g = goldschmidt_constant()
    h_star = critical_constants().h_star
    ok = abs(h_g - 0.5277) <= 1e-4 and h_g < h_star
    _verdict(ok, "C2 Goldschmidt constant", f"h_G={h_g:.10f}, h*={h_star:.10f}")


def test_c3_spectral_anchor():
    # mu vanishes at +-tau_star, so its Rayleigh quotient R bounds lambda_1
    # from above. Expanding mu in the eigenfunctions, R - lambda_1 is at
    # least (lambda_2 - lambda_1) times the squared weighted distance of
    # mu/|mu| from the ground state psi_1: R = lambda_1 puts psi_1 = mu.
    cc = critical_constants()
    lam_1, lam_2 = eigenvalues(cc.tau_star, 2).lambdas
    lam_dense = float(dense_eigenvalues(cc.tau_star, 1)[0])
    rq = exact_rayleigh_quotient(mu, mu_prime, cc.tau_star)
    dist = math.sqrt(abs(rq - lam_1) / (lam_2 - lam_1))
    ok = (
        abs(lam_1 - 1.0) <= 1e-13
        and abs(lam_dense - 1.0) <= 1e-4
        and abs(rq - lam_1) <= 1e-12
        and dist <= 1e-6
    )
    _verdict(
        ok,
        "C3 spectral anchor",
        f"lambda1-1={lam_1 - 1.0:.1e}, dense={lam_dense:.8f}, R(mu)-lambda1={rq - lam_1:.1e}, "
        f"|psi1-mu|<={dist:.1e}",
    )


def test_c4_third_variation():
    cc = critical_constants()
    e = critical_extremal()
    closed = math.tau * cc.tau_star**4 / (3.0 * cc.h_star)
    psi = TestFunction.sample(mu, cc.tau_star, 8193)
    quad = third_variation(e, psi)
    rep = taylor_probe(e, psi, 0.03)
    rel_quad = abs(quad - closed) / closed
    rel_probe = abs(rep.raw_d3 - closed) / closed

    t_vals = np.logspace(-3, -1, 9)
    a0 = area_along_direction(e, psi, 0.0)
    gaps = np.array([area_along_direction(e, psi, float(t)) - a0 for t in t_vals])
    slope = np.polyfit(np.log(t_vals), np.log(gaps), 1)[0]

    ok = rel_quad <= 1e-4 and rel_probe <= 1e-3 and abs(slope - 3.0) <= 0.1
    _verdict(
        ok,
        "C4 third variation",
        f"closed={closed:.8f}, quad rel={rel_quad:.2e}, probe rel={rel_probe:.2e}, "
        f"log-log slope={slope:.4f}",
    )


def test_c5_second_variation_sign_dichotomy():
    rng = np.random.default_rng(41)
    worst = math.inf
    for _ in range(100):
        coeffs = rng.uniform(-1.0, 1.0, size=5)
        fn = lambda s: sum(
            c * np.sin((k + 1) * np.pi * (s + 0.8) / 1.6) for k, c in enumerate(coeffs)
        )
        psi = TestFunction.sample(fn, 0.8, 513)
        worst = min(worst, q_form(psi))
    q_neg = q_form(negative_direction(2.0))
    ok = worst > 0.0 and q_neg < 0.0
    _verdict(
        ok,
        "C5 sign dichotomy",
        f"min q over 100 draws at tau=0.8: {worst:.6f}; q(negative direction, tau=2)={q_neg:.6f}",
    )


def test_c6_small_h_asymptotics():
    r1, r2 = small_h_asymptotics(1e-3)
    r1f, r2f = small_h_asymptotics(1e-5)
    ok = (
        abs(r1 - 1.0) <= 1e-3
        and abs(r2 - 2.0) <= 0.05
        and abs(r1f - 1.0) < abs(r1 - 1.0)
        and abs(r2f - 2.0) < abs(r2 - 2.0)
    )
    _verdict(
        ok,
        "C6 small-h asymptotics",
        f"tau1/h={r1:.8f}, h*exp(tau2)/tau2={r2:.8f}; at 1e-5: {r1f:.10f}, {r2f:.10f}",
    )


def test_c7_area_consistency():
    worst = 0.0
    for h in (0.1, 0.4, 0.6):
        for e in solve_branches(h):
            grid = np.linspace(-h, h, 4097)
            quad = area_quadrature(grid, profile(e, grid))
            worst = max(worst, abs(quad - area_closed_form(e)) / area_closed_form(e))
    sweep_ok = True
    for h in np.linspace(0.05, 0.66, 100):
        lower, upper = solve_branches(float(h))
        if not area_closed_form(lower) < area_closed_form(upper):
            sweep_ok = False
    ok = worst <= 1e-6 and sweep_ok
    _verdict(
        ok,
        "C7 area consistency",
        f"worst quadrature rel err={worst:.2e}; lower < upper on 100-point sweep: {sweep_ok}",
    )


def test_c8_force_law():
    def closed_area(h):
        return area_closed_form(solve_branches(h)[0])

    worst = 0.0
    for h in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        fd = -(closed_area(h + 1e-6) - closed_area(h - 1e-6)) / 2e-6
        worst = max(worst, abs(force(h).force - fd) / abs(fd))
    h_star = critical_constants().h_star
    ratio = abs(force(h_star - 1e-6).dforce_dh) / abs(force(h_star / 2.0).dforce_dh)
    ok = worst <= 1e-4 and ratio > 100.0
    _verdict(ok, "C8 force law", f"worst F vs -dS/dh rel err={worst:.2e}; blow-up ratio={ratio:.1f}")


def test_c9_direct_minimization_dichotomy():
    sub = minimize(0.4, 512, InitPreset.CYLINDER)
    y_exact = profile(solve_branches(0.4)[0], sub.final_profile.grid)
    sup = float(np.max(np.abs(sub.final_profile.y - y_exact)))
    sup_ok = sub.outcome is Outcome.CONVERGED and sup <= 1e-3

    sup_run = minimize(0.7, 1024, InitPreset.CYLINDER)
    collapse_ok = (
        sup_run.outcome is Outcome.COLLAPSED
        and math.tau < sup_run.final_area < math.tau + 0.15
    )

    lo, hi = 0.6, 0.7
    for _ in range(4):
        mid = 0.5 * (lo + hi)
        if minimize(mid, 256, InitPreset.CYLINDER).outcome is Outcome.CONVERGED:
            lo = mid
        else:
            hi = mid
    est = 0.5 * (lo + hi)
    bisect_ok = abs(est - 0.6627) <= 0.01

    ok = sup_ok and collapse_ok and bisect_ok
    _verdict(
        ok,
        "C9 direct minimization",
        f"h=0.4 sup dev={sup:.2e}; h=0.7 area-2pi={sup_run.final_area - math.tau:.2e}; "
        f"bisection estimate={est:.5f}",
    )


def test_c10_oracle_equivalence_and_orders():
    cc = critical_constants()

    worst_spec = 0.0
    for tau in (0.5, cc.tau_star, 2.0):
        lams = eigenvalues(tau, 5).lambdas
        dense = np.array(dense_eigenvalues(tau, 5))
        worst_spec = max(worst_spec, float(np.max(np.abs(lams - dense) / dense)))
    # not at tau_star, where nu_1 = 1 and mpmath's Q_nu takes a slow limit; C3 pins it
    worst_exact = max(
        abs(lam / string_eigenvalue(tau, k, lam) - 1.0)
        for tau in (0.5, 2.0)
        for k, lam in enumerate(eigenvalues(tau, 5).lambdas, start=1)
    )
    spectral_ok = worst_spec <= 1e-4 and worst_exact <= 1e-13

    # Declared Richardson checks, one representative per quantity.
    def q_at(n):
        psi = TestFunction.sample(lambda s: np.sin(np.pi * (s + 1.0) / 2.0), 1.0, n)
        return q_form(psi)

    q_fine = q_at(4097)
    q_ratio = abs(q_at(129) - q_fine) / abs(q_at(257) - q_fine)

    lower, _ = solve_branches(0.5)
    a_exact = area_closed_form(lower)

    def area_err(n):
        grid = np.linspace(-0.5, 0.5, n)
        return abs(area_quadrature(grid, profile(lower, grid)) - a_exact)

    a_ratio = area_err(257) / area_err(513)

    # lambda_1 = 1 exactly at tau_star: RK4's end value there is its error
    lam_errs = [abs(shoot(cc.tau_star, 1.0, n)[0]) for n in (512, 1024)]
    lam_ratio = lam_errs[0] / lam_errs[1]

    lower4, _ = solve_branches(0.4)
    d_exact = area_closed_form(lower4)

    def discrete_err(n):
        grid = np.linspace(-0.4, 0.4, n + 1)
        y = profile(lower4, grid)
        y[0] = 1.0
        y[-1] = 1.0
        return abs(discrete_area(Profile(h=0.4, grid=grid, y=y)) - d_exact)

    d_ratio = discrete_err(256) / discrete_err(512)

    ratios_ok = (
        3.5 <= q_ratio <= 4.5
        and 3.5 <= a_ratio <= 4.5
        and 12.0 <= lam_ratio <= 20.0
        and 3.5 <= d_ratio <= 4.5
    )

    rng = np.random.default_rng(53)
    worst_grad = 0.0
    for grid, y in smooth_test_profiles(rng, 0.4, 128, 20):
        p = Profile(h=0.4, grid=grid, y=y)
        g = discrete_gradient(p)
        scale = np.max(np.abs(g))
        for i in (1, 32, 64, 96, 127):
            def area_of(v, i=i):
                yy = y.copy()
                yy[i] = v
                return discrete_area(Profile(h=0.4, grid=grid, y=yy))

            fd = richardson_diff(area_of, y[i], 1e-4)
            worst_grad = max(worst_grad, abs(fd - g[i]) / scale)
    grad_ok = worst_grad <= 1e-6

    ok = spectral_ok and ratios_ok and grad_ok
    _verdict(
        ok,
        "C10 oracle equivalence",
        f"eigenvalues vs dense rel={worst_spec:.2e}, vs mpmath {worst_exact:.1e}; "
        f"Richardson q={q_ratio:.2f}, "
        f"area={a_ratio:.2f}, lambda={lam_ratio:.2f}, discrete={d_ratio:.2f}; "
        f"gradient vs FD rel={worst_grad:.2e}",
    )
