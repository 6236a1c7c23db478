"""Properties of the branch solves and the ring force over their whole domain."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soapfilm import energetics
from soapfilm.errors import DomainError, NoExtremalError
from soapfilm.extremals import area_closed_form, critical_constants, solve_branches

from oracles import H_STAR, TAU_STAR, richardson_diff

# Closest approach to the fold that is still resolved as two branches.
_FOLD_MARGIN = 2e-12

# Smallest h solve_branches accepts: below it c = h/tau_2 is too coarse.
_H_MIN = 1e-307


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(10.0**e, hi))


def _log_boundary_residual(h, tau):
    """log(h*cosh(tau)/tau), finite where cosh(tau) overflows (tau > 710)."""
    log_cosh = tau + math.log1p(math.exp(-2.0 * tau)) - math.log(2.0)
    return math.log(h) + log_cosh - math.log(tau)


@given(_log_uniform(_H_MIN, H_STAR - _FOLD_MARGIN))
def test_boundary_residual_and_branch_order(h):
    lower, upper = solve_branches(h)
    for e in (lower, upper):
        assert abs(_log_boundary_residual(h, e.tau)) <= 1e-12
    assert lower.tau < TAU_STAR < upper.tau


@pytest.mark.parametrize("h", [_H_MIN, 1e-306, 5e-306])
def test_upper_extremal_where_cosh_overflows(h):
    # tau_2 > 700 here, and c = h/tau_2 is subnormal below about 1.6e-305.
    _, upper = solve_branches(h)
    assert upper.tau > 700.0
    assert abs(_log_boundary_residual(h, upper.tau)) <= 1e-12
    assert abs(area_closed_form(upper) / (2.0 * math.pi) - 1.0) <= 1e-6


@pytest.mark.parametrize("h", [9.99e-308, 1.2e-308, 1e-310, 5e-324])
def test_h_below_the_smallest_accepted_is_a_domain_error(h):
    with pytest.raises(DomainError):
        solve_branches(h)
    with pytest.raises(DomainError):
        energetics.force(h)


@given(_log_uniform(_H_MIN, 1e-8))
def test_areas_at_tiny_h(h):
    # The lower film is a thin tube of area 4*pi*h; the upper one tends to
    # the two flat disks, 2*pi.
    lower, upper = solve_branches(h)
    assert abs(area_closed_form(lower) / (4.0 * math.pi * h) - 1.0) <= 1e-12
    assert abs(area_closed_form(upper) / (2.0 * math.pi) - 1.0) <= 1e-6


@given(_log_uniform(_FOLD_MARGIN, 1e-6))
def test_gap_follows_fold_asymptote(d):
    h_star = critical_constants().h_star
    h = h_star - d
    d = h_star - h  # exact: the distance the solver actually sees
    lower, upper = solve_branches(h)
    asymptote = 2.0 * math.sqrt(2.0 * d / h_star)
    assert abs((upper.tau - lower.tau) / asymptote - 1.0) <= 1e-4


@given(st.floats(0.05, 0.6))
def test_force_slope_matches_difference_quotient(h):
    numeric = richardson_diff(lambda x: energetics.force(x).force, h, 1e-4)
    assert abs(energetics.force(h).dforce_dh / numeric - 1.0) <= 1e-6


@given(_log_uniform(1e-300, H_STAR - _FOLD_MARGIN))
def test_force_solves_branches_once(h):
    calls = []

    def counting(x):
        calls.append(x)
        return solve_branches(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energetics, "solve_branches", counting)
        energetics.force(h)
    assert calls == [h]


@given(st.one_of(st.just(math.nan), st.floats(max_value=0.0)))
def test_nonpositive_or_nan_h_is_a_domain_error(h):
    with pytest.raises(DomainError):
        solve_branches(h)
    with pytest.raises(DomainError):
        energetics.force(h)


def test_infinite_h_has_no_extremal():
    with pytest.raises(NoExtremalError):
        solve_branches(math.inf)
    with pytest.raises(NoExtremalError):
        energetics.force(math.inf)
