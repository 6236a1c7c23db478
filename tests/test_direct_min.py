import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from soapfilm import direct_min
from soapfilm.direct_min import (
    _laplacian_solve,
    _ldl_solve,
    InitPreset,
    Outcome,
    Profile,
    discrete_area,
    discrete_gradient,
    minimize,
)
from soapfilm.errors import DomainError
from soapfilm.extremals import area_closed_form, critical_constants, profile, solve_branches

from oracles import (
    branch_area,
    converged_discrete_area,
    laplacian_solve_exact,
    richardson_diff,
    smooth_test_profiles,
)


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
    # the area within 1e-13 of the corrected reference (measured 1.5e-14)
    report = minimize(0.4, 512, InitPreset.CYLINDER)
    assert report.outcome is Outcome.CONVERGED
    reference = converged_discrete_area(0.4, 512)
    assert abs(report.final_area - reference) <= 1e-13 * reference
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
    monkeypatch.setattr(direct_min, "_newton_step", lambda seg, g, dx: -scale * g)
    h = 0.45
    report = minimize(h, 64, "cylinder")
    assert report.outcome is Outcome.ITERATION_LIMIT
    assert report.iterations == 0
    assert np.all(report.final_profile.y == 1.0)
    assert report.final_area == 2.0 * math.tau * h


def test_line_search_takes_no_point_with_a_non_positive_gap(monkeypatch):
    # From a thin tube at h = 0.3 the lower catenoid has less area, but the
    # step there raises every radius against g > 0, so g.dy < 0 and the run
    # stalls where it started.
    h, n = 0.3, 64
    target = _catenoid_profile(h, n - 1)
    y = np.full(n, 0.01)
    y[0] = y[-1] = 1.0
    tube = Profile(h=h, grid=target.grid, y=y)
    assert discrete_area(target) < discrete_area(tube)
    assert discrete_gradient(tube) @ (y - target.y) < 0.0
    monkeypatch.setattr(direct_min, "_newton_step", lambda seg, g, dx: y - target.y)
    report = minimize(h, n, tube)
    assert report.outcome is Outcome.ITERATION_LIMIT
    assert report.iterations == 0
    assert np.all(report.final_profile.y == y)


def test_line_search_shortens_a_step_that_the_floor_clips_uphill(monkeypatch):
    # g.d > 0 along the step, but its full length sinks the 2*floor neck past
    # the floor, which clips the neck's share of g.dy to g*floor, and the
    # other radius's rise then outweighs it: g.dy <= 0 although the area
    # falls (the neck is concave). Half the step is clipped less: it descends.
    h, n, near, far = 0.45, 64, 20, 40
    grid = np.linspace(-h, h, n)
    y = np.ones(n)
    y[near] = 2.0 * direct_min._FLOOR
    dx = grid[1] - grid[0]
    seg = direct_min._segments(y, dx)
    g = direct_min._gradient(seg, dx)
    step = np.zeros(n)
    step[near] = 1e-3
    step[far] = -math.nextafter(g[near] * direct_min._FLOOR / g[far], math.inf)
    assert g @ step > 0.0

    def trial(alpha):
        y_new = y - alpha * step
        y_new[1:-1] = np.maximum(y_new[1:-1], direct_min._FLOOR)
        return float(g @ (y - y_new)), discrete_area(Profile(h=h, grid=grid, y=y_new))

    area = discrete_area(Profile(h=h, grid=grid, y=y))
    gap, full = trial(1.0)
    assert gap <= 0.0 and full < area
    gap, half = trial(0.5)
    assert gap > 0.0 and half < area
    monkeypatch.setattr(direct_min, "_newton_step", lambda seg, g, dx: step)
    monkeypatch.setattr(direct_min, "_MAX_ITER", 1)
    report = minimize(h, n, Profile(h=h, grid=grid, y=y))
    assert report.iterations == 1
    assert report.final_area == half


def test_collapse_on_the_coarsest_grid_keeps_the_end_cones():
    # dx = 2h/(n-1) = 1, the ring radius: the two end cones have area
    # 2*pi*sqrt(1 + dx^2), not the disks' 2*pi
    report = minimize(31.5, 64, "cylinder")
    assert report.outcome is Outcome.COLLAPSED
    assert abs(report.final_area - math.tau * math.sqrt(2.0)) <= 1e-4 * math.tau * math.sqrt(2.0)
    with pytest.raises(DomainError):
        minimize(math.nextafter(31.5, math.inf), 64, "cylinder")


def test_minimize_dichotomy():
    # the Converged areas within 1e-11 of the corrected reference (measured
    # at most 3.3e-12, at h = 0.6)
    for h in (0.3, 0.5, 0.6):
        report = minimize(h, 256, InitPreset.CYLINDER)
        assert report.outcome is Outcome.CONVERGED, h
        reference = converged_discrete_area(h, 256)
        assert abs(report.final_area - reference) <= 1e-11 * reference, h
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
    # the area within 1e-13 of the corrected reference (measured 1.2e-14)
    report = minimize(0.4, 512, InitPreset.LOWER_CATENOID)
    assert report.outcome is Outcome.CONVERGED
    reference = converged_discrete_area(0.4, 512)
    assert abs(report.final_area - reference) <= 1e-13 * reference


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


@pytest.mark.parametrize(
    "h, radius, overflows",
    [
        (0.45, 1e103, False),
        (0.45, 1e144, False),
        (0.45, 1e150, False),
        (0.45, 1e152, False),
        (0.45, 1e160, True),
        (0.45, 1e300, True),
        (31.5, 1e149, False),
        (31.5, 1e150, False),
    ],
)
def test_a_start_with_one_huge_radius_collapses_unless_its_area_overflows(h, radius, overflows):
    # Its two segments' w^3 overflows from a radius of about 1e103, and the
    # area decrease's ybar*dm*(m1 + m2) from about 1e144; neither is formed.
    # From 1e149 on the coarsest grid (dx = 1) and 1e152 at h = 0.45, the K
    # solve meets resistances whose products pass the float range unless
    # scaled. From about 1e153 the start's discrete area overflows: a
    # DomainError.
    n = 64
    y = np.ones(n)
    y[30] = radius
    start = Profile(h=h, grid=np.linspace(-h, h, n), y=y)
    if overflows:
        with pytest.raises(DomainError):
            minimize(h, n, start)
    else:
        assert minimize(h, n, start).outcome is Outcome.COLLAPSED


def test_minimize_validates_arguments():
    with pytest.raises(DomainError):
        minimize(0.0, 256, InitPreset.CYLINDER)
    with pytest.raises(DomainError):
        minimize(0.4, 32, InitPreset.CYLINDER)
    with pytest.raises(DomainError):
        minimize(0.4, 256, "not-a-preset")


@pytest.mark.parametrize("init", [3, None, b"cylinder", 1.5, "CYLINDER", ["cylinder"]], ids=repr)
def test_a_start_that_names_no_preset_is_a_domain_error(init):
    # neither a Profile nor an InitPreset member or value; these once ran
    # from the upper catenoid
    with pytest.raises(DomainError, match="unknown preset"):
        minimize(0.4, 64, init)


@pytest.mark.parametrize("preset", list(InitPreset))
def test_a_preset_runs_alike_as_member_and_as_value(preset):
    by_member, by_value = minimize(0.4, 64, preset), minimize(0.4, 64, preset.value)
    assert by_member == by_value
    assert by_member.outcome is Outcome.CONVERGED


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


def test_saddle_escapes_take_few_iterations_in_total():
    # Upper-branch starts must leave the saddle along the second variation's
    # ground state. Radii far above the floor once counted as active and
    # crawled by g/K: 85 358 iterations over these nine. Single counts are
    # chaotic in the last bit of the arithmetic, so the total is bounded.
    # Each area lies within 2e-12 of the corrected reference (measured at
    # most 5.6e-13).
    up, uc = "upper_perturbed", "upper_catenoid"
    runs = [
        (1e-5, 64, up), (1e-4, 64, up), (1e-3, 128, up),
        (3.2e-6, 64, uc), (0.1155, 128, uc), (0.1355, 64, uc),
        (0.1791, 128, up), (0.3, 512, up), (0.4, 256, up),
    ]
    total = 0
    for h, n, init in runs:
        report = minimize(h, n, init)
        assert report.outcome is Outcome.CONVERGED, (h, n, init)
        reference = converged_discrete_area(h, n)
        assert abs(report.final_area - reference) <= 2e-12 * reference, (h, n, init)
        total += report.iterations
    assert total <= 480


def test_saddle_escapes_on_the_cli_grid_take_few_iterations_in_total():
    # The benchmark's cli workload starts upper_perturbed at these 16 h on
    # 64 nodes, h a golden-ratio walk over (0.4, 0.5). They ended at 133
    # iterations in all, each area within 1.26e-5 of the lower branch's, the
    # O(dx^2) error at dx ~ 0.014, and within 2.0e-10 of the corrected
    # reference. Single counts are chaotic, so only the total is bounded.
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    total = 0
    for p in range(16):
        h = 0.9 - (0.4 + 0.1 * ((0.5 + p * golden) % 1.0))
        report = minimize(h, 64, "upper_perturbed")
        assert report.outcome is Outcome.CONVERGED, h
        reference = converged_discrete_area(h, 64)
        assert abs(report.final_area - reference) <= 5e-10 * reference, h
        total += report.iterations
    assert total <= 160


def test_no_saddle_escape_at_h_star_and_the_message_names_the_bound():
    # at h* the upper branch's tau is tau* to rounding, within the 1e-9
    # margin the ground state needs
    with pytest.raises(DomainError) as info:
        minimize(critical_constants().h_star, 64, "upper_perturbed")
    found = re.fullmatch(r"tau=(\S+) is not above tau_star \+ 1e-9 = (\S+)", str(info.value))
    assert found and float(found[2]) > float(found[1])


def test_newton_step_moves_every_interior_radius(monkeypatch):
    # Both dips are pushed down by g. The neck at the 2*floor radius is
    # concave (its area is about 2*pi*(1 - y^2)), so H has a negative pivot
    # and every interior row, the floored one included, solves with K.
    h, n, floored, near = 0.45, 64, 20, 40
    grid = np.linspace(-h, h, n)
    y = np.ones(n)
    y[floored], y[near] = direct_min._FLOOR, 2.0 * direct_min._FLOOR
    dx = grid[1] - grid[0]
    seg = direct_min._segments(y, dx)
    g = direct_min._gradient(seg, dx)
    assert g[floored] > 0.0 and g[near] > 0.0
    step = direct_min._newton_step(seg, g, dx)

    m, w, ybar = seg
    c = math.tau * ybar / (dx * w**3)
    k = np.diag(c[:-1] + c[1:]) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)
    hess = k + np.diag(math.tau * ((m / w)[:-1] - (m / w)[1:]))
    assert np.linalg.eigvalsh(hess).min() < 0.0
    s, rhs = step[1:-1], g[1:-1]
    scale = np.abs(k) @ np.abs(s) + np.abs(rhs)
    assert np.all(np.abs(k @ s - rhs) <= 8.0 * np.finfo(float).eps * scale)
    # The projection clips both dips back to the floor; the point the line
    # search accepts still descends.
    monkeypatch.setattr(direct_min, "_MAX_ITER", 1)
    report = minimize(h, n, Profile(h=h, grid=grid, y=y))
    assert report.iterations == 1
    assert g @ (y - report.final_profile.y) > 0.0


def test_floored_starts_and_fine_collapses_take_few_iterations_in_total():
    # Cylinders with one to four interior radii on the floor, then the
    # collapse at h = 0.7 on fine grids. Holding the floored radii pushed
    # down by g took 4 665 and 41 iterations. Single counts are chaotic in
    # the last bit of the arithmetic, so only the totals are bounded.
    rng = random.Random(20261019)
    outcomes, total = [], 0
    for _ in range(300):
        h = rng.uniform(0.05, 1.5)
        n = rng.choice([64, 65, 128])
        floored = sorted(rng.sample(range(1, n - 1), rng.randint(1, 4)))
        y = np.ones(n)
        y[floored] = direct_min._FLOOR
        report = minimize(h, n, Profile(h=h, grid=np.linspace(-h, h, n), y=y))
        outcomes.append(report.outcome)
        total += report.iterations
    assert outcomes.count(Outcome.COLLAPSED) == 299
    assert outcomes.count(Outcome.CONVERGED) == 1
    assert total <= 1200
    total = 0
    for n in (512, 1024, 8192):
        report = minimize(0.7, n, "cylinder")
        assert report.outcome is Outcome.COLLAPSED, n
        total += report.iterations
    assert total <= 28


# The benchmark's cli workload starts the cylinder at these 16 h on 64 nodes,
# h_p = 0.4 + 0.1*frac(0.5 + p*(sqrt(5) - 1)/2) for p = 0..15: its
# "minimize below h*" check. Each converged in 4 iterations, within 1.3e-5
# of the lower branch's area and 2.1e-10 of the corrected reference. Over
# [0.05, 0.62] the corrected error grows with h, to 1.31e-9 at 0.62.
@given(st.floats(0.05, 0.62))
@example(0.45)
@example(0.4118033988749895)
@example(0.473606797749979)
@example(0.4354101966249685)
@example(0.49721359549995797)
@example(0.4590169943749475)
@example(0.420820393249937)
@example(0.48262379212492645)
@example(0.44442719099991596)
@example(0.40623058987490546)
@example(0.46803398874989494)
@example(0.42983738762488444)
@example(0.4916407864998739)
@example(0.4534441853748634)
@example(0.41524758424985286)
@example(0.4770509831248424)
def test_minimize_converges_below_transition(h):
    report = minimize(h, 64, InitPreset.CYLINDER)
    assert report.outcome is Outcome.CONVERGED
    reference = converged_discrete_area(h, 64)
    assert abs(report.final_area - reference) <= 3e-9 * reference


@pytest.mark.parametrize("h, init", [(0.3, "cylinder"), (0.6, "upper_perturbed")])
def test_the_converged_area_error_falls_4_times_per_halved_spacing(h, init):
    # The raw error against the lower branch's exact area is (pi*tau/6)*dx^2
    # + O(dx^4): on 64, 128 and 256 segments each ratio is 4 to within 5e-4
    # (measured 4 - 1.2e-4 at h = 0.6, 64 to 128 segments).
    exact = branch_area(h, False)
    errors = [minimize(h, n, init).final_area - exact for n in (65, 129, 257)]
    assert all(abs(a / b - 4.0) <= 5e-4 for a, b in zip(errors, errors[1:])), errors


@given(st.floats(0.70, 2.0))
@example(0.8976151495266591)
@example(0.8586238488944113)
@example(0.7)
def test_minimize_collapses_above_transition(h):
    report = minimize(h, 64, InitPreset.CYLINDER)
    assert report.outcome is Outcome.COLLAPSED
    assert math.tau < report.final_area < math.tau + 0.15


# Segment weights of a steep profile, spread over 20 decades
_STEEP_WEIGHTS = [1e-12, 1e8, 1e-12, 1e8, 1e-12, 3.0, 1e-12]


def test_laplacian_solve_survives_weights_spread_over_20_decades():
    # Elimination rounds the second pivot, (1e8 + 1e-12) - 1e8**2/(1e8 + 1e-12),
    # to 0, where it is about 2e-12.
    c = np.array(_STEEP_WEIGHTS)
    rhs = np.arange(1.0, 7.0)
    assert _ldl_solve(c[:-1] + c[1:], -c[1:-1], rhs) is None
    for value, want in zip(_laplacian_solve(c, rhs), laplacian_solve_exact(c, rhs)):
        assert abs(Fraction(value) - want) <= Fraction(1e-14) * abs(want)


_WEIGHT = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)
_RHS = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)).map(
    lambda t: t[0] * 10.0 ** t[1]
)


@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.lists(_WEIGHT, min_size=n + 1, max_size=n + 1),
                        st.lists(_RHS, min_size=n, max_size=n))
))
@example((_STEEP_WEIGHTS, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
def test_laplacian_solve_is_accurate_to_a_few_ulps_of_the_summed_terms(system):
    # Weights log-uniform over up to 24 decades, g of mixed sign. K^-1 is
    # entrywise positive, so |K^-1||g| is K^-1 applied to |g|.
    c, g = np.array(system[0]), np.array(system[1])
    got = _laplacian_solve(c, g)
    eps = Fraction(np.finfo(float).eps)
    scale = laplacian_solve_exact(c, np.abs(g))
    for value, want, bound in zip(got, laplacian_solve_exact(c, g), scale):
        assert abs(Fraction(value) - want) <= 8 * eps * bound


def _ldl_reference(d, e, x):
    """LDL^T of a symmetric tridiagonal matrix in the textbook order, in place."""
    for i in range(len(d)):
        if i:
            lower = e[i - 1] / d[i - 1]
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
    lambda n: st.tuples(*(st.lists(_ENTRY, min_size=k, max_size=k) for k in (n, n - 1, n)))
))
def test_ldl_solve_matches_the_textbook_recurrence_bit_for_bit(rows):
    diag, off, rhs = rows
    # as drawn (often indefinite), and made diagonally dominant (definite)
    bands = [0.0, *map(abs, off), 0.0]
    dominant = [abs(v) + bands[i] + bands[i + 1] + 1.0 for i, v in enumerate(diag)]
    for d in (diag, dominant):
        want = _ldl_reference(list(d), list(off), list(rhs))
        got = _ldl_solve(np.array(d), np.array(off), np.array(rhs))
        assert got is None if want is None else [v.hex() for v in got] == [v.hex() for v in want]
    assert got is not None
