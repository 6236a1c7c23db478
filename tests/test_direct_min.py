import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soapfilm import direct_min
from soapfilm.direct_min import (
    _laplacian_pivots,
    _ldl_solve,
    InitPreset,
    Outcome,
    Profile,
    discrete_area,
    discrete_gradient,
    minimize,
)
from soapfilm.errors import DomainError
from soapfilm.extremals import area_closed_form, profile, solve_branches

from oracles import richardson_diff, smooth_test_profiles


def _catenoid_profile(h, n, branch=0):
    e = solve_branches(h)[branch]
    grid = np.linspace(-h, h, n + 1)
    y = profile(e, grid)
    y[0] = 1.0
    y[-1] = 1.0
    return Profile(h=h, grid=grid, y=y)


def test_profile_validation():
    grid = np.linspace(-0.4, 0.4, 65)
    with pytest.raises(DomainError):
        Profile(h=0.4, grid=grid, y=np.full(65, 0.5))
    y = np.ones(65)
    y[10] = 1e-9
    with pytest.raises(DomainError):
        Profile(h=0.4, grid=grid, y=y)
    with pytest.raises(DomainError):
        Profile(h=0.5, grid=grid, y=np.ones(65))
    with pytest.raises(DomainError, match="same shape"):
        Profile(h=0.4, grid=grid, y=np.ones(64))


def test_cylinder_discrete_area_exact():
    grid = np.linspace(-0.4, 0.4, 129)
    p = Profile(h=0.4, grid=grid, y=np.ones(129))
    assert discrete_area(p) == 2.0 * math.tau * 0.4


def test_catenoid_discrete_area_close():
    p = _catenoid_profile(0.4, 2048)
    exact = area_closed_form(solve_branches(0.4)[0])
    np.testing.assert_allclose(discrete_area(p), exact, rtol=5e-6, atol=0.0)


def test_discrete_area_error_quarters_with_halved_segments():
    exact = area_closed_form(solve_branches(0.4)[0])
    errs = [abs(discrete_area(_catenoid_profile(0.4, n)) - exact) for n in (256, 512, 1024)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_gradient_zero_at_endpoints_nonzero_on_cylinder():
    grid = np.linspace(-0.4, 0.4, 129)
    p = Profile(h=0.4, grid=grid, y=np.ones(129))
    g = discrete_gradient(p)
    assert g[0] == 0.0 and g[-1] == 0.0
    assert np.max(np.abs(g[1:-1])) > 1e-2


def test_catenoid_is_discretely_stationary():
    gmaxes = []
    for n in (512, 1024, 2048):
        g = discrete_gradient(_catenoid_profile(0.4, n))
        gmaxes.append(np.max(np.abs(g)))
        assert gmaxes[-1] <= 1.0 / n**2
    # The O(n^-2) decay is visible until roundoff in the segment sums takes
    # over around 1e-10.
    assert gmaxes[1] < gmaxes[0]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(29)
    worst = 0.0
    for grid, y in smooth_test_profiles(rng, 0.4, 128, 20):
        p = Profile(h=0.4, grid=grid, y=y)
        g = discrete_gradient(p)
        scale = np.max(np.abs(g))
        idx = [1, 32, 64, 96, 127]
        for i in idx:
            def area_of(v, i=i):
                yy = y.copy()
                yy[i] = v
                return discrete_area(Profile(h=0.4, grid=grid, y=yy))

            fd = richardson_diff(area_of, y[i], 1e-4)
            worst = max(worst, abs(fd - g[i]) / scale)
    assert worst <= 1e-6


def test_minimize_subcritical_converges_to_catenoid():
    report = minimize(0.4, 512, InitPreset.CYLINDER)
    assert report.outcome is Outcome.CONVERGED
    exact = area_closed_form(solve_branches(0.4)[0])
    np.testing.assert_allclose(report.final_area, exact, rtol=1e-4, atol=0.0)
    y_exact = profile(solve_branches(0.4)[0], report.final_profile.grid)
    assert np.max(np.abs(report.final_profile.y - y_exact)) <= 1e-3
    assert report.final_profile.y[0] == 1.0
    assert report.final_profile.y[-1] == 1.0
    g = discrete_gradient(report.final_profile)
    assert np.max(np.abs(g)) <= math.tau * 1e-8


def test_minimize_supercritical_collapses():
    report = minimize(0.7, 512, "cylinder")
    assert report.outcome is Outcome.COLLAPSED
    assert report.min_y <= 10.0 * 1e-6
    assert math.tau < report.final_area < math.tau + 0.15


def test_minimize_descends_monotonically(monkeypatch):
    # the gradient is taken once at every iterate, the start included
    areas = []
    original = direct_min._gradient

    def spy(seg, dx):
        areas.append(direct_min._area(seg, dx))
        return original(seg, dx)

    monkeypatch.setattr(direct_min, "_gradient", spy)
    report = minimize(0.45, 256, InitPreset.CYLINDER)
    assert report.outcome is Outcome.CONVERGED
    assert np.all(np.diff(areas) <= 0.0)
    assert len(areas) == report.iterations + 1


@pytest.mark.parametrize(
    "h, init", [(0.45, "cylinder"), (0.4, "upper_perturbed"), (0.7, "cylinder")]
)
def test_minimize_forms_segments_once_per_trial_point(monkeypatch, h, init):
    # the start's segments, then one set per line-search trial; the accepted
    # trial's serve the next iterate's gradient and Newton step
    formed, tried, used = [], [], []
    segments, decrease = direct_min._segments, direct_min._area_decrease
    gradient = direct_min._gradient

    def spy_segments(y, dx):
        formed.append(segments(y, dx))
        return formed[-1]

    def spy_decrease(dy, seg, seg_new, dx):
        tried.append(seg_new)
        return decrease(dy, seg, seg_new, dx)

    def spy_gradient(seg, dx):
        used.append(seg)
        return gradient(seg, dx)

    monkeypatch.setattr(direct_min, "_segments", spy_segments)
    monkeypatch.setattr(direct_min, "_area_decrease", spy_decrease)
    monkeypatch.setattr(direct_min, "_gradient", spy_gradient)
    report = minimize(h, 64, init)
    assert report.iterations > 0
    assert len(formed) == 1 + len(tried)
    assert all(a is b for a, b in zip(formed[1:], tried))
    # every iterate's gradient reads segments formed for that point, start included
    assert len(used) == report.iterations + 1
    assert used[0] is formed[0] and all(any(u is t for t in tried) for u in used[1:])


@pytest.mark.parametrize("init", [p.value for p in InitPreset] + ["profile"])
def test_final_area_is_the_discrete_area_of_the_final_profile(init):
    # one spacing: minimize takes dx from check_uniform_grid, as Profile does
    h, n = 0.45, 64
    if init == "profile":
        grid = np.linspace(-h, h, n)
        y = 1.0 - 0.1 * np.sin(np.pi * (grid + h) / (2.0 * h))
        y[0] = y[-1] = 1.0
        init = Profile(h=h, grid=grid, y=y)
    report = minimize(h, n, init)
    assert report.outcome is Outcome.CONVERGED
    assert report.final_area == discrete_area(report.final_profile)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_stalled_line_search_is_an_iteration_limit(monkeypatch, scale):
    # An uphill step fails the Armijo test at every trial: the short one
    # dwindles to a null step, the long one exhausts the 60 halvings. Either
    # way the run stops at the cylinder it started from, of area 4*pi*h.
    monkeypatch.setattr(direct_min, "_newton_step", lambda y, seg, g, eps, dx: -scale * g)
    h = 0.45
    report = minimize(h, 64, "cylinder")
    assert report.outcome is Outcome.ITERATION_LIMIT
    assert report.iterations == 0
    assert np.all(report.final_profile.y == 1.0)
    assert report.final_area == 2.0 * math.tau * h


def test_collapse_on_the_coarsest_grid_keeps_the_end_cones():
    # dx = 2h/(n-1) = 1, the ring radius: the two end cones have area
    # 2*pi*sqrt(1 + dx^2), not the disks' 2*pi
    report = minimize(31.5, 64, "cylinder")
    assert report.outcome is Outcome.COLLAPSED
    assert abs(report.final_area - math.tau * math.sqrt(2.0)) <= 1e-4 * math.tau * math.sqrt(2.0)
    with pytest.raises(DomainError):
        minimize(math.nextafter(31.5, math.inf), 64, "cylinder")


def test_minimize_dichotomy():
    for h in (0.3, 0.5, 0.6):
        report = minimize(h, 256, InitPreset.CYLINDER)
        assert report.outcome is Outcome.CONVERGED, h
        exact = area_closed_form(solve_branches(h)[0])
        np.testing.assert_allclose(report.final_area, exact, rtol=1e-4, atol=0.0)
    for h in (0.7, 0.8, 1.0):
        report = minimize(h, 256, InitPreset.CYLINDER)
        assert report.outcome is Outcome.COLLAPSED, h
        assert report.final_area > math.tau


def test_minimize_escapes_saddle():
    _, upper = solve_branches(0.4)
    saddle_area = area_closed_form(upper)
    report = minimize(0.4, 256, InitPreset.UPPER_PERTURBED)
    assert report.final_area < saddle_area - 1e-4


def test_minimize_mesh_independence():
    a512 = minimize(0.4, 512, InitPreset.CYLINDER).final_area
    a1024 = minimize(0.4, 1024, InitPreset.CYLINDER).final_area
    assert abs(a1024 - a512) / a512 < 1e-4


def test_minimize_accepts_catenoid_start():
    report = minimize(0.4, 512, InitPreset.LOWER_CATENOID)
    assert report.outcome is Outcome.CONVERGED
    exact = area_closed_form(solve_branches(0.4)[0])
    np.testing.assert_allclose(report.final_area, exact, rtol=1e-4, atol=0.0)


def test_minimize_accepts_explicit_profile():
    h, n = 0.4, 129
    e = solve_branches(h)[0]
    grid = np.linspace(-h, h, n)
    y = profile(e, grid)
    y[0] = 1.0
    y[-1] = 1.0
    start = Profile(h=h, grid=grid, y=y)
    report = minimize(h, n, start)
    assert report.outcome is Outcome.CONVERGED
    with pytest.raises(DomainError):
        minimize(h, 257, start)


def test_minimize_validates_arguments():
    with pytest.raises(DomainError):
        minimize(0.0, 256, InitPreset.CYLINDER)
    with pytest.raises(DomainError):
        minimize(0.4, 32, InitPreset.CYLINDER)
    with pytest.raises(DomainError):
        minimize(0.4, 256, "not-a-preset")


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bad_half_distance_is_a_domain_error(h):
    with pytest.raises(DomainError):
        minimize(h, 64, InitPreset.CYLINDER)
    with pytest.raises(DomainError):
        Profile(h=h, grid=np.linspace(-0.4, 0.4, 65), y=np.ones(65))


@pytest.mark.parametrize(
    "h, n, init, bound",
    [
        (0.4, 512, "cylinder", 8),
        (0.7, 1024, "cylinder", 42),
        (0.4, 256, "upper_perturbed", 16),
        (0.4, 8192, "cylinder", 6),
    ],
)
def test_minimize_iteration_counts(h, n, init, bound):
    # Newton steps: the count does not grow with n (gradient descent took
    # 11 746, 51 647 and 11 342 iterations at the first three).
    assert minimize(h, n, init).iterations <= bound


@given(st.floats(0.05, 0.62))
def test_minimize_converges_below_transition(h):
    report = minimize(h, 64, InitPreset.CYLINDER)
    assert report.outcome is Outcome.CONVERGED
    exact = area_closed_form(solve_branches(h)[0])
    assert abs(report.final_area - exact) <= 1e-4 * exact


@given(st.floats(0.70, 2.0))
def test_minimize_collapses_above_transition(h):
    report = minimize(h, 64, InitPreset.CYLINDER)
    assert report.outcome is Outcome.COLLAPSED
    assert math.tau < report.final_area < math.tau + 0.15


def test_laplacian_pivots_survive_weights_spread_over_20_decades():
    # Segment weights of a steep profile: elimination rounds the second pivot,
    # (1e8 + 1e-12) - 1e8**2/(1e8 + 1e-12), to 0, where it is about 2e-12.
    c = np.array([1e-12, 1e8, 1e-12, 1e8, 1e-12, 3.0, 1e-12])
    diag, off = c[:-1] + c[1:], -c[1:-1]
    rhs = np.arange(1.0, 7.0)
    assert _ldl_solve(diag, off, rhs) is None
    # exact pivots and solution of K with these weights, in rationals
    w = [Fraction(v) for v in c]
    pivots, forward = [w[0] + w[1]], [Fraction(rhs[0])]
    for i in range(1, len(diag)):
        pivots.append(w[i] + w[i + 1] - w[i] ** 2 / pivots[-1])
        forward.append(Fraction(rhs[i]) + w[i] / pivots[-2] * forward[-1])
    exact = [forward[-1] / pivots[-1]]
    for i in range(len(diag) - 2, -1, -1):
        exact.insert(0, (forward[i] + w[i + 1] * exact[0]) / pivots[i])
    got = _laplacian_pivots(c, off)
    for value, want in zip(got, pivots):
        assert abs(Fraction(value) - want) <= Fraction(1e-15) * want
    for value, want in zip(_ldl_solve(diag, off, rhs, got), exact):
        assert abs(Fraction(value) - want) <= Fraction(1e-14) * abs(want)


def _ldl_reference(d, e, x, eliminate):
    """LDL^T of a symmetric tridiagonal matrix in the textbook order, in place."""
    for i in range(len(d)):
        if i:
            lower = e[i - 1] / d[i - 1]
            if eliminate:
                d[i] -= lower * e[i - 1]
            x[i] -= lower * x[i - 1]
            e[i - 1] = lower
        if not d[i] > 0.0:
            return None
    x[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = x[i] / d[i] - e[i] * x[i + 1]
    return x


_ENTRY = st.floats(-1e6, 1e6, allow_subnormal=False)


@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(*(st.lists(_ENTRY, min_size=k, max_size=k) for k in (n, n - 1, n, n)))
))
def test_ldl_solve_matches_the_textbook_recurrence_bit_for_bit(rows):
    diag, off, rhs, pivots = rows
    # as drawn (often indefinite), and made diagonally dominant (definite)
    bands = [0.0, *map(abs, off), 0.0]
    dominant = [abs(v) + bands[i] + bands[i + 1] + 1.0 for i, v in enumerate(diag)]
    for d in (diag, dominant):
        want = _ldl_reference(list(d), list(off), list(rhs), eliminate=True)
        got = _ldl_solve(np.array(d), np.array(off), np.array(rhs))
        assert got is None if want is None else [v.hex() for v in got] == [v.hex() for v in want]
    assert got is not None
    given_pivots = [abs(p) + 1.0 for p in pivots]
    want = _ldl_reference(list(given_pivots), list(off), list(rhs), eliminate=False)
    got = _ldl_solve(np.array(diag), np.array(off), np.array(rhs), given_pivots)
    assert [v.hex() for v in got] == [v.hex() for v in want]
