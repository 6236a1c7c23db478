import math
import re

import numpy as np
import pytest

from soapfilm import extremals
from soapfilm.cli import main
from soapfilm.energetics import ForceSample, force
from soapfilm.errors import DomainError, NoExtremalError
from soapfilm.extremals import (
    Branch,
    CriticalConstants,
    Extremal,
    area_closed_form,
    critical_constants,
    critical_extremal,
    phi,
    profile,
    small_h_asymptotics,
    solve_branches,
)

from oracles import COSH_1, H_STAR, TAU1_AT_04, TAU2_AT_04, TAU_STAR, bisect60


def test_phi_at_critical_parameter():
    cc = critical_constants()
    np.testing.assert_allclose(phi(cc.tau_star), 1.0 / cc.h_star, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(phi(cc.tau_star), 1.50888, rtol=0.0, atol=1e-5)


def test_phi_at_one_matches_series_cosh():
    np.testing.assert_allclose(phi(1.0), COSH_1, rtol=0.0, atol=1e-12)


def test_phi_blows_up_at_both_ends():
    assert phi(1e-3) > 100.0
    assert phi(1e3) > 100.0
    assert phi(1e6) == math.inf


def test_phi_rejects_nonpositive():
    with pytest.raises(DomainError):
        phi(0.0)
    with pytest.raises(DomainError):
        phi(-1.0)


def test_critical_constants_frozen_values():
    cc = critical_constants()
    np.testing.assert_allclose(cc.tau_star, TAU_STAR, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(cc.h_star, H_STAR, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(cc.tau_star, 1.19968, rtol=0.0, atol=1e-5)
    np.testing.assert_allclose(cc.h_star, 0.6627, rtol=0.0, atol=1e-4)
    assert abs(1.0 - cc.tau_star * math.tanh(cc.tau_star)) <= 1e-12


def test_critical_constants_refuse_a_tau_star_off_its_root():
    # 1 - 1.2*tanh(1.2) = -3.9e-4, though h_star matches 1.2 exactly
    with pytest.raises(DomainError, match="^tau_star residual"):
        CriticalConstants(1.2, 1.2 / math.cosh(1.2))


def test_solve_branches_at_04():
    lower, upper = solve_branches(0.4)
    np.testing.assert_allclose(lower.tau, TAU1_AT_04, rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(upper.tau, TAU2_AT_04, rtol=0.0, atol=1e-11)
    assert lower.branch is Branch.LOWER
    assert upper.branch is Branch.UPPER
    assert lower.tau < TAU_STAR < upper.tau
    np.testing.assert_allclose(lower.c * math.cosh(0.4 / lower.c), 1.0, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(upper.c * math.cosh(0.4 / upper.c), 1.0, rtol=0.0, atol=1e-10)


def test_solve_branches_critical_coincide():
    # the true fold lies 8.2e-18 above the double h_star, where g is flat to
    # its rounding: both solves land on one double, 23 ulps above tau_star
    cc = critical_constants()
    lower, upper = solve_branches(cc.h_star)
    assert lower.tau == upper.tau
    assert abs(lower.tau - cc.tau_star) <= 5e-9 * cc.tau_star
    e = critical_extremal()
    assert e.tau == cc.tau_star
    assert e.h == cc.h_star


def test_solve_branches_beyond_critical():
    with pytest.raises(NoExtremalError) as exc:
        solve_branches(0.7)
    assert exc.value.h == 0.7
    np.testing.assert_allclose(exc.value.h_star, H_STAR, rtol=0.0, atol=1e-12)


def test_solve_branches_rejects_nonpositive():
    with pytest.raises(DomainError):
        solve_branches(0.0)
    with pytest.raises(DomainError):
        solve_branches(-0.4)


def test_boundary_condition_across_sweep():
    for h in (1e-5, 1e-3, 0.1, 0.3, 0.5, 0.6, 0.66):
        lower, upper = solve_branches(h)
        assert abs(phi(lower.tau) - 1.0 / h) * h <= 1e-10
        assert abs(phi(upper.tau) - 1.0 / h) * h <= 1e-10


def test_branch_parameters_monotone_in_h():
    hs = np.linspace(0.05, 0.65, 25)
    tau1 = []
    tau2 = []
    for h in hs:
        lower, upper = solve_branches(float(h))
        tau1.append(lower.tau)
        tau2.append(upper.tau)
    assert np.all(np.diff(tau1) > 0.0)
    assert np.all(np.diff(tau2) < 0.0)


def test_lower_parameter_slope_closed_form():
    # d tau1 / d h = cosh(tau1) / (1 - tau1 tanh(tau1)), finite below h_star.
    step = 1e-6
    for h in (0.1, 0.3, 0.5, 0.59):
        tau_p = solve_branches(h + step)[0].tau
        tau_m = solve_branches(h - step)[0].tau
        fd = (tau_p - tau_m) / (2.0 * step)
        tau1 = solve_branches(h)[0].tau
        closed = math.cosh(tau1) / (1.0 - tau1 * math.tanh(tau1))
        np.testing.assert_allclose(fd, closed, rtol=1e-4, atol=0.0)


def test_lower_parameter_slope_blows_up_at_critical():
    cc = critical_constants()
    h = cc.h_star - 1e-6
    step = 5e-8
    tau_p = solve_branches(h + step)[0].tau
    tau_m = solve_branches(h - step)[0].tau
    assert (tau_p - tau_m) / (2.0 * step) > 1e2


def test_profile_shape():
    lower, upper = solve_branches(0.4)
    for e in (lower, upper):
        np.testing.assert_allclose(profile(e, 0.4), 1.0, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(profile(e, -0.4), 1.0, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(profile(e, 0.0), e.c, rtol=0.0, atol=1e-15)
        x = np.linspace(-0.4, 0.4, 41)
        y = profile(e, x)
        np.testing.assert_allclose(y, y[::-1], rtol=0.0, atol=1e-15)
        assert np.all(y >= e.c - 1e-15)


def test_profile_rejects_outside_interval():
    lower, _ = solve_branches(0.4)
    with pytest.raises(DomainError):
        profile(lower, 0.41)
    with pytest.raises(DomainError):
        profile(lower, np.array([0.0, -0.5]))


def test_areas_ordered_and_merge_at_critical():
    lower, upper = solve_branches(0.4)
    np.testing.assert_allclose(area_closed_form(lower), 4.883793201931079, rtol=1e-12)
    np.testing.assert_allclose(area_closed_form(upper), 6.601303526004207, rtol=1e-12)
    assert area_closed_form(lower) < area_closed_form(upper)
    cc = critical_constants()
    clower, cupper = solve_branches(cc.h_star)
    assert area_closed_form(clower) == area_closed_form(cupper)


def test_small_h_area_limits():
    # The shallow branch hugs the unit cylinder, so its area decays like
    # 4*pi*h: 0.012566 at h = 1e-3, a tenth of that at h = 1e-4.
    lower, upper = solve_branches(1e-3)
    np.testing.assert_allclose(area_closed_form(lower), 4.0e-3 * math.pi, rtol=1e-5)
    assert area_closed_form(lower) < 0.02
    assert area_closed_form(solve_branches(1e-4)[0]) < 0.11 * area_closed_form(lower)
    np.testing.assert_allclose(area_closed_form(upper), 2.0 * math.pi, rtol=0.0, atol=0.1)
    assert area_closed_form(upper) > 2.0 * math.pi


def test_small_h_asymptotic_ratios():
    r1, r2 = small_h_asymptotics(1e-3)
    np.testing.assert_allclose(r1, 1.0, rtol=0.0, atol=1e-3)
    np.testing.assert_allclose(r2, 2.0, rtol=0.0, atol=0.05)
    r1f, r2f = small_h_asymptotics(1e-5)
    assert abs(r1f - 1.0) < abs(r1 - 1.0)
    assert abs(r2f - 2.0) < abs(r2 - 2.0)


def test_small_h_asymptotics_requires_small_h():
    with pytest.raises(DomainError):
        small_h_asymptotics(0.5)
    with pytest.raises(DomainError):
        small_h_asymptotics(0.0)


def test_extremal_validates_inputs():
    with pytest.raises(DomainError, match="boundary condition violated"):
        Extremal(h=0.4, tau=1.0, branch=Branch.LOWER)
    lower, _ = solve_branches(0.4)
    with pytest.raises(DomainError, match="below tau_star"):
        Extremal(h=0.4, tau=lower.tau, branch=Branch.UPPER)
    # tau must solve h*cosh(tau) = tau, on either branch
    with pytest.raises(DomainError, match="boundary condition violated"):
        Extremal(h=0.4, tau=2.0 * lower.tau, branch=Branch.LOWER)
    with pytest.raises(DomainError, match="boundary condition violated"):
        Extremal(h=0.4, tau=math.inf, branch=Branch.UPPER)


def test_extremal_is_an_immutable_record():
    lower, upper = solve_branches(0.4)
    again = Extremal(h=0.4, tau=lower.tau, branch=Branch.LOWER)
    assert repr(lower) == f"Extremal(h=0.4, tau={lower.tau!r}, branch=<Branch.LOWER: 'lower'>)"
    assert Extremal._fields == ("h", "tau", "branch")
    assert lower == again and hash(lower) == hash(again)
    assert lower != upper and not lower == upper
    # immutability, tuple comparison and _replace: test_package's record contract


@pytest.mark.parametrize("h", [1e-300, 0.4, H_STAR])
def test_the_waist_is_h_over_tau(h):
    for e in solve_branches(h):
        assert e.c == e.h / e.tau
    with pytest.raises(AttributeError):
        e.c = 1.0


@pytest.mark.parametrize("field", ["h", "tau"])
def test_extremal_rejects_nan(field):
    lower, _ = solve_branches(0.4)
    fields = {"h": 0.4, "tau": lower.tau, field: math.nan}
    with pytest.raises(DomainError):
        Extremal(branch=Branch.LOWER, **fields)


def test_branch_solution_matches_independent_halving():
    h = 0.25
    cc = critical_constants()
    f = lambda t: math.cosh(t) / t - 1.0 / h
    oracle1 = bisect60(f, 1e-6, cc.tau_star)
    oracle2 = bisect60(f, cc.tau_star, 30.0)
    lower, upper = solve_branches(h)
    np.testing.assert_allclose(lower.tau, oracle1, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(upper.tau, oracle2, rtol=0.0, atol=1e-10)


# The library builds its records positionally, through the same checks as a
# keyword build: a branch solve that returned a wrong tau is refused with
# Extremal's message wherever the record is built. At h = 0.3 the true
# roots lie on either side of tau_star, and moving either by 1e-6 relative
# moves log(h*cosh(tau)/tau) by |mu(tau)|*1e-6, far past 1e-10.
_H = 0.3
_TAU1, _TAU2 = (e.tau for e in solve_branches(_H))
_RESIDUAL = "boundary condition violated: log(h*cosh(tau)/tau) = "
# case -> (what each successive branch solve returns, the message)
BAD_SOLVES = {
    "lower off its root": ([_TAU1 * (1.0 + 1e-6)], _RESIDUAL),
    "upper off its root": ([_TAU1, _TAU2 * (1.0 + 1e-6)], _RESIDUAL),
    "lower above tau_star": ([_TAU2], "lower-branch parameter exceeds tau_star"),
    "upper below tau_star": ([_TAU1, _TAU1], "upper-branch parameter is below tau_star"),
}


def _patch_branch_solve(monkeypatch, case):
    """Make the branch solves return the case's answers; its message."""
    answers, message = BAD_SOLVES[case]
    returned = iter(answers)
    monkeypatch.setattr(extremals, "_solve_branch", lambda log_h, u, lo, hi: next(returned))
    return message


@pytest.mark.parametrize("case", sorted(BAD_SOLVES))
def test_a_wrong_branch_solve_is_refused_by_solve_branches(case, monkeypatch):
    message = _patch_branch_solve(monkeypatch, case)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        solve_branches(_H)


# force solves the lower branch alone
@pytest.mark.parametrize("case", [case for case in sorted(BAD_SOLVES) if case.startswith("lower")])
def test_a_wrong_branch_solve_is_refused_by_force(case, monkeypatch):
    message = _patch_branch_solve(monkeypatch, case)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        force(_H)


@pytest.mark.parametrize("case", sorted(BAD_SOLVES))
def test_a_wrong_branch_solve_makes_cli_solve_exit_2(case, monkeypatch, capsys):
    message = _patch_branch_solve(monkeypatch, case)
    assert main(["solve", "--h", repr(_H)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {message}")


@pytest.mark.parametrize("h", [1e-300, 0.01, _H, H_STAR - 1e-10, H_STAR])
def test_library_records_equal_their_keyword_builds(h):
    lower, upper = solve_branches(h)
    # records equal only records of their own class
    assert lower == Extremal(h=h, tau=lower.tau, branch=Branch.LOWER)
    assert upper == Extremal(h=h, tau=upper.tau, branch=Branch.UPPER)
    if h == H_STAR:
        tau_star = critical_constants().tau_star
        assert critical_extremal() == Extremal(h=h, tau=tau_star, branch=Branch.LOWER)
        with pytest.raises(NoExtremalError):
            force(h)
    else:
        sample = force(h)
        assert sample == ForceSample(h=h, force=sample.force, dforce_dh=sample.dforce_dh)
