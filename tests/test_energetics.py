import math

import numpy as np
import pytest

from soapfilm.energetics import (
    ForceSample,
    area_quadrature,
    force,
    goldschmidt_constant,
)
from soapfilm.errors import DomainError, NoExtremalError
from soapfilm.extremals import (
    Branch,
    Extremal,
    area_closed_form,
    critical_constants,
    profile,
    solve_branches,
)
from soapfilm.spectrum import eigenvalues

from oracles import H_STAR, R_AT_1, central_diff, lambert_goldschmidt, mpmath_constants


def _catenoid_samples(e, n):
    grid = np.linspace(-e.h, e.h, n)
    return grid, profile(e, grid)


def test_cylinder_area_exact():
    for h in (0.2, 0.5, 1.3):
        grid = np.linspace(-h, h, 257)
        got = area_quadrature(grid, np.ones_like(grid))
        np.testing.assert_allclose(got, 2.0 * math.tau * h, rtol=0.0, atol=1e-12)


def test_catenoid_area_matches_closed_form():
    lower, _ = solve_branches(0.4)
    grid, y = _catenoid_samples(lower, 4097)
    np.testing.assert_allclose(area_quadrature(grid, y), area_closed_form(lower), rtol=1e-6)
    _, upper = solve_branches(0.1)
    grid, y = _catenoid_samples(upper, 4097)
    got = area_quadrature(grid, y)
    np.testing.assert_allclose(got, area_closed_form(upper), rtol=1e-6)
    np.testing.assert_allclose(got, math.tau, rtol=0.0, atol=0.2)


def test_area_quadrature_rejects_nonpositive_profile():
    grid = np.linspace(-0.4, 0.4, 65)
    y = np.ones_like(grid)
    y[32] = 0.0
    with pytest.raises(DomainError):
        area_quadrature(grid, y)


def test_area_quadrature_rejects_mismatched_shapes():
    with pytest.raises(DomainError, match="same shape"):
        area_quadrature(np.linspace(-0.4, 0.4, 65), np.ones(64))


def test_area_quadrature_richardson_rate():
    lower, _ = solve_branches(0.5)
    exact = area_closed_form(lower)
    errs = []
    for n in (257, 513, 1025):
        grid, y = _catenoid_samples(lower, n)
        errs.append(abs(area_quadrature(grid, y) - exact))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def _scaled_area(tau):
    """area / (pi*h^2) = 2/tau + sinh(2*tau)/tau^2 of the catenoid with parameter tau."""
    h = tau / math.cosh(tau)
    e = Extremal(h=h, tau=tau, branch=Branch.LOWER)
    return area_closed_form(e) / (math.pi * h * h)


def test_scaled_area_values():
    np.testing.assert_allclose(_scaled_area(1.0), R_AT_1, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(_scaled_area(1.0), 5.6269, rtol=0.0, atol=1e-4)
    # R ~ 4/tau as tau -> 0.
    np.testing.assert_allclose(_scaled_area(1e-4) * 1e-4 / 4.0, 1.0, rtol=0.0, atol=1e-6)


def test_goldschmidt_constant():
    h_g = goldschmidt_constant()
    np.testing.assert_allclose(h_g, 0.5277, rtol=0.0, atol=1e-4)
    # the closed form sqrt(W_0(1/e)) rounds to the root of the area condition
    assert h_g == lambert_goldschmidt() == mpmath_constants()[2]
    assert h_g < critical_constants().h_star
    lower, _ = solve_branches(h_g)
    np.testing.assert_allclose(area_closed_form(lower), math.tau, rtol=0.0, atol=1e-10)


def test_critical_constants_are_the_mpmath_doubles():
    # three Newton steps from 1.2 land on the double nearest tau_star, and
    # tau_star/cosh(tau_star) rounds to the one nearest h_star
    tau_star, h_star, _ = mpmath_constants()
    assert tuple(critical_constants()) == (tau_star, h_star)


def test_force_sign_and_value():
    fs = force(0.3)
    assert isinstance(fs, ForceSample)
    assert fs.force < 0.0
    lower, _ = solve_branches(0.3)
    np.testing.assert_allclose(fs.force, -2.0 * math.tau * 0.3 / lower.tau, rtol=1e-12)


def test_force_sample_is_an_immutable_record():
    fs = force(0.3)
    assert repr(fs) == f"ForceSample(h=0.3, force={fs.force!r}, dforce_dh={fs.dforce_dh!r})"
    assert fs == force(0.3) and hash(fs) == hash(force(0.3))
    assert fs != force(0.4)
    # immutability and tuple comparison: test_package's record contract


def test_force_matches_area_slope():
    def closed_area(h):
        return area_closed_form(solve_branches(h)[0])

    for h in (0.2, 0.4, 0.6):
        fd = -central_diff(closed_area, h, 1e-6)
        np.testing.assert_allclose(force(h).force, fd, rtol=1e-4, atol=0.0)


def test_force_slope_blows_up_at_critical():
    h_star = critical_constants().h_star
    near = force(h_star - 1e-6).dforce_dh
    mid = force(h_star / 2.0).dforce_dh
    assert abs(near) > 100.0 * abs(mid)


def test_force_rejects_supercritical():
    h_star = critical_constants().h_star
    with pytest.raises(NoExtremalError):
        force(h_star)
    with pytest.raises(NoExtremalError):
        force(0.7)


def test_force_up_to_the_fold_and_none_from_it():
    # Below h_star the lower catenoid is its own and its slope
    # 4*pi*tanh(tau_1)/mu(tau_1) is finite and large; at h_star the solve
    # lands on the fold, where mu(tau_1) is not positive, and above it no
    # catenoid exists.
    h_star = critical_constants().h_star
    for d in (-1.1e-12, -9e-13, -5e-13):
        slope = force(h_star + d).dforce_dh
        assert math.isfinite(slope) and slope > 1e6
    for d in (0.0, 5e-13, 9e-13):
        with pytest.raises(NoExtremalError) as exc:
            force(h_star + d)
        assert "above" not in str(exc.value)


def test_stable_film_persists_beyond_disk_crossing():
    # Between the area-crossing threshold and the critical half-distance the
    # shallow catenoid still exists and stays a strict local minimum: its
    # reduced interval is subcritical and the string ground state sits above 1.
    h_g = goldschmidt_constant()
    h_star = critical_constants().h_star
    tau_star = critical_constants().tau_star
    for frac in (0.1, 0.5, 0.9):
        h = h_g + frac * (h_star - h_g)
        lower, _ = solve_branches(h)
        assert lower.tau < tau_star
        lam1 = eigenvalues(lower.tau, 1).lambdas[0]
        assert lam1 > 1.0
        assert area_closed_form(lower) > math.tau
