"""Properties of the branch solves and the ring force over their whole domain."""

import contextlib
import io
import json
import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from soapfilm import energetics, extremals
from soapfilm.cli import main
from soapfilm.errors import ConvergenceFailureError, DomainError, NoExtremalError
from soapfilm.extremals import area_closed_form, critical_constants, solve_branches

from oracles import H_STAR, TAU_STAR, branch_root, catenoid_area, richardson_diff

# Closest approach to the fold of the log-uniform draws; the doubles nearer
# it are drawn ulp by ulp (test_the_fold_s_last_doubles_*).
_FOLD_MARGIN = 2e-12

# The least positive double, 2**-1074: every h from it up is answered.
_H_MIN = 5e-324
# Below this h the lower area 4*pi*h is no longer a normal float: its
# relative rounding grows to an ulp of the subnormal.
_H_NORMAL_AREA = 1e-307


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


@pytest.mark.parametrize("h", [_H_MIN, 1e-307, 1e-306, 5e-306])
def test_upper_extremal_where_cosh_overflows(h):
    # tau_2 > 700 here, and c = h/tau_2 is subnormal below about 1.6e-305
    # (0 at 5e-324).
    _, upper = solve_branches(h)
    assert upper.tau > 700.0
    assert abs(_log_boundary_residual(h, upper.tau)) <= 1e-12
    assert abs(area_closed_form(upper) / (2.0 * math.pi) - 1.0) <= 1e-6


@example(9.99e-308)
@example(1.2e-308)
@example(2.2250738585072014e-308)
@example(1e-310)
@example(5.619578425415e-311)
@example(_H_MIN)
@given(st.one_of(_log_uniform(_H_MIN, 1e-307), st.integers(1, 2**52).map(lambda k: k * 2.0**-1074)))
def test_h_below_1e_307_is_answered(h):
    # c = h/tau_2 is subnormal or 0 here, and every answer is finite
    lower, upper = solve_branches(h)
    values = [
        lower.tau, upper.tau, lower.c, upper.c, area_closed_form(lower), area_closed_form(upper),
        *energetics.force(h), *extremals.small_h_asymptotics(h),
        extremals.profile(lower, -h), extremals.profile(upper, 0.0), extremals.profile(upper, h),
    ]
    assert all(math.isfinite(v) for v in values)
    assert abs(extremals.profile(upper, h) - 1.0) <= 1e-12


@given(_log_uniform(_H_NORMAL_AREA, 1e-8))
def test_areas_at_tiny_h(h):
    # The lower film is a thin tube of area 4*pi*h; the upper one tends to
    # the two flat disks, 2*pi.
    lower, upper = solve_branches(h)
    assert abs(area_closed_form(lower) / (4.0 * math.pi * h) - 1.0) <= 1e-12
    assert abs(area_closed_form(upper) / (2.0 * math.pi) - 1.0) <= 1e-6


# 2.0e-282 (tau_2 = 655.8) is where the identity 2*pi*(h*c + tanh(tau)),
# which c*cosh(tau) = 1 gives, misses the formula by 8.8e-13; a subnormal
# area (the lower one below h ~ 1.8e-309) rounds to a few of its ulps.
@pytest.mark.parametrize(
    "h", [5e-324, 1e-310, 1e-307, 2.027854582882596e-282, 1e-100, 1e-8, 0.4, H_STAR - 1e-6]
)
def test_area_closed_form_meets_the_formula_at_the_returned_tau(h):
    for e in solve_branches(h):
        want = catenoid_area(h, e.tau)
        assert abs(area_closed_form(e) - want) <= 1e-12 * want + 4.0 * _H_MIN


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
    # exactly one root solve, and it is the lower branch's
    taus = []
    solve = extremals._solve_branch

    def counting(log_h, u, lo, hi):
        taus.append(solve(log_h, u, lo, hi))
        return taus[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extremals, "_solve_branch", counting)
        energetics.force(h)
    assert taus == [solve_branches(h)[0].tau]


def _refuse_root_finder(monkeypatch):
    """Make find_root_bracketed raise wherever a soapfilm module binds it."""

    def refuse(*args, **kwargs):
        raise AssertionError("find_root_bracketed called")

    for name, module in list(sys.modules.items()):
        if name.startswith("soapfilm") and hasattr(module, "find_root_bracketed"):
            monkeypatch.setattr(module, "find_root_bracketed", refuse)


@pytest.mark.parametrize("h", [1e-300, 0.01, 0.3, H_STAR - 1e-10])
def test_branch_solves_make_no_generic_root_finder_call(monkeypatch, h):
    critical_constants()
    _refuse_root_finder(monkeypatch)
    solve_branches(h)
    energetics.force(h)


def test_goldschmidt_constant_makes_no_root_finder_call(monkeypatch):
    # sqrt(W_0(1/e)) by its own six Newton steps: energetics does not even
    # import the root finder
    assert not hasattr(energetics, "find_root_bracketed")
    _refuse_root_finder(monkeypatch)
    assert energetics.goldschmidt_constant() == 0.5276973969625716


def test_critical_constants_make_no_root_finder_call(monkeypatch):
    # tau_star by its own three Newton steps, taken once when extremals
    # loads: extremals does not even import the root finder
    assert not hasattr(extremals, "find_root_bracketed")
    _refuse_root_finder(monkeypatch)
    assert critical_constants() is critical_constants()
    assert not hasattr(critical_constants, "cache_clear")
    assert not hasattr(critical_constants, "__wrapped__")


def _g(u, log_h):
    """The branch equation log(h*cosh(t)/t), t = e^u, as the solver forms it."""
    t = math.exp(u)
    return t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0) - u + log_h


def _brackets(h):
    """The (log h, start u, lo, hi) of each branch solve solve_branches(h) makes."""
    seen = []
    solve = extremals._solve_branch

    def capture(log_h, u, lo, hi):
        seen.append((log_h, u, lo, hi))
        return solve(log_h, u, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extremals, "_solve_branch", capture)
        solve_branches(h)
    return seen


@example(_H_MIN)
@example(H_STAR - 1.0000001e-12)
@given(
    st.one_of(
        _log_uniform(_H_MIN, H_STAR - 1e-12),
        _log_uniform(_H_MIN, 1e-305),
        _log_uniform(1e-12, 1e-4).map(lambda d: H_STAR - d),
    )
)
def test_closed_form_brackets_contain_the_root(h):
    # g falls through its lower root and rises through its upper one, so
    # each bracket must have g > 0 > g (lower) or g < 0 < g (upper) at its
    # ends, clear of g's rounding floor. The solver evaluates no end but its
    # start: the lower end, or the inner one where the fold offset is at
    # most 1/2, for the lower branch, and the upper end for the upper one.
    tau_star, h_star = critical_constants()
    if not h < h_star - 1e-12:
        return
    (log_h, u1, lo1, hi1), (_, u2, lo2, hi2) = _brackets(h)
    floor = 2.3e-16
    assert _g(lo1, log_h) > floor and _g(hi1, log_h) < -floor
    assert _g(lo2, log_h) < -floor and _g(hi2, log_h) > floor
    delta = math.sqrt(2.0 * (math.log(h_star) - math.log(h))) / tau_star
    assert u1 == (lo1 if delta > 0.5 else hi1) and u2 == hi2
    lower, upper = solve_branches(h)
    assert lo1 <= math.log(lower.tau) <= hi1
    assert lo2 <= math.log(upper.tau) <= hi2


# How near a sign change of g the solve's contract puts u, about an ulp of
# u, and its tolerance in g, g's rounding floor.
_TOL_X, _TOL_F = 1e-15, 2.3e-16

_BANDS = {
    "bulk": st.floats(0.01, H_STAR - 1e-4),
    "tiny": _log_uniform(_H_MIN, 1e-2),
    # k*2**-1074, every subnormal and the normals up to 2**-1021
    "subnormal": st.integers(1, 2**53).map(lambda k: k * 2.0**-1074),
    "fold": _log_uniform(1e-12, 1e-4).map(lambda d: H_STAR - d),
}

# Most ulps by which (tau_1, tau_2) of the branch solve miss the exact root
# (oracles.branch_root) in the bulk band: 67 and 67 over 220 000 h, 160 000
# of them in the band's top 2e-5, which holds the maxima: there |g'| is
# 0.021. A solve there may stop on g down to -1.93 tol_f (6 438 of those
# 320 000 solves stop below -tol_f), but from the convex side that g is
# rounding: Newton overshoots the root only by the rounding of the g it
# stepped from, and such stops miss by no more than the rest (67 at
# h = 0.6626355959614388, g = -1.69 tol_f). In the tiny band the miss is
# bounded by the float spacing of u instead (_tiny_miss_ulps). Near the
# fold, where g is flat, any u within its rounding is a root: there the
# miss is bounded by the u over which g moves by 2 tol_f (at most 1.83
# tol_f over 160 000 h).
_BULK_ULPS = (70, 70)


def _tiny_miss_ulps(u, tau, slope):
    """The most ulps of tau by which a branch solve ending on u can miss the root tau.

    The solve stops on |g| <= tol_f or on a Newton step that rounds to its
    iterate, under half an ulp of u. g's rounding moves that stop by its
    size over |g'|: half an ulp of |u| + tau, at the subtraction of u, and
    about two ulps of tau + 1 from exp, log1p and the other sums. An ulp of
    u moves tau by tau*ulp(u)/ulp(tau) of its ulps, and exp rounds by one
    more. Where tau_1 is tiny, u_1 ~ log h is large and |g'| ~ 1: then the
    spacing of u's floats alone is up to 2|u| ulps of tau (31 at
    h = 5.79e-8, where the solve misses by 17), far above the bulk's misses.
    """
    g_rounding = 0.5 * math.ulp(abs(u) + tau) + 2.0 * math.ulp(tau + 1.0)
    du = 0.5 * math.ulp(u) + (g_rounding + _TOL_F) / abs(slope)
    return du * tau / math.ulp(tau) + 1.0


# (band, h) the draws below need not meet: four with a solve that stops on
# g between -2 tol_f and -tol_f with no sign change of g within tol_x of u
# (two near the fold, the lowest g measured and the largest miss of tau_2),
# then the largest miss of tau_1, and the largest tiny-band miss of tau_1
# measured (17 ulps, over a sample maximum of 16 that once bounded it).
# Then the subnormal and normal edges: 2**-1074 and 3*2**-1074; an h where
# exp(u) rounds tau_1 one subnormal ulp away from h; the least normal
# double; and 2**-26, where cosh(h) rounds to 1 but tau_1 to h + 1 ulp.
_HARD_SOLVES = [
    ("fold", 0.6627433199111888),
    ("fold", 0.662699993780875),
    ("bulk", 0.6626373204548726),
    ("bulk", 0.6626355959614388),
    ("bulk", 0.6626415414827597),
    ("tiny", 5.7914387250874006e-08),
    ("subnormal", 5e-324),
    ("subnormal", 1.5e-323),
    ("subnormal", 5.619578425415e-311),
    ("tiny", 2.2250738585072014e-308),
    ("tiny", 1.4901161193847656e-08),
]


def _solve_in_u(log_h, u, lo, hi):
    """The branch solve's iterates u, the last of them the root whose exp it
    returns, and that tau.

    Each evaluation calls exp(u), then exp(-2t).
    """
    args = []

    def exp(x):
        args.append(x)
        return math.exp(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extremals, "math", SimpleNamespace(exp=exp, log1p=math.log1p))
        tau = extremals._solve_branch(log_h, u, lo, hi)
    assert tau == math.exp(args[-2]) and args[-1] == -2.0 * tau
    return args[0::2], tau


def _check_force(h, exact, miss):
    """force(h).force against -4*pi*h/tau_1, within tau_1's miss of miss ulps.

    exact is the float nearest tau_1, half an ulp from it: at subnormal h
    that half ulp is as coarse as the miss.
    """
    want = -2.0 * math.tau * (h / exact)
    rel = (miss + 0.5) * math.ulp(exact) / exact + 4.0 * sys.float_info.epsilon
    assert abs(energetics.force(h).force - want) <= rel * abs(want)


def _check_branch_solves(band, h):
    for i, (log_h, start, lo, hi) in enumerate(_brackets(h)):
        us, tau = _solve_in_u(log_h, start, lo, hi)
        u = us[-1]
        root, exact, slope = branch_root(log_h, lo, hi)
        if band == "fold":
            assert abs(u - root) * abs(slope) <= 2.0 * _TOL_F
        else:
            if band == "bulk":
                miss = _BULK_ULPS[i]
            else:
                miss = _tiny_miss_ulps(u, exact, slope)
            assert abs(tau - exact) <= miss * math.ulp(exact)
            if i == 0:
                _check_force(h, exact, miss)
        # Newton from its start, inside the bracket, every step toward the
        # root (up for tau_1, down for tau_2) once an iterate had g > 0
        gs = [_g(x, log_h) for x in us]
        assert us[0] == start and all(lo <= x <= hi for x in us)
        positive = [k for k, g in enumerate(gs) if g > 0.0]
        if positive:
            steps = [b - a for a, b in zip(us[positive[0] :], us[positive[0] + 1 :])]
            assert all(d > 0.0 if i == 0 else d < 0.0 for d in steps)
        # the root finder's contract: |g| <= tol_f, or g changes sign within
        # tol_x of u, give or take its rounding, or Newton from the convex
        # side stopped on g's rounding below 0, no lower than -2 tol_f
        reach = _TOL_X + 4.0 * math.ulp(u)
        assert (
            abs(gs[-1]) <= _TOL_F
            or (_g(u - reach, log_h) > 0.0) != (_g(u + reach, log_h) > 0.0)
            or (-2.0 * _TOL_F <= gs[-1] <= _TOL_F and positive and positive[0] < len(us) - 1)
        )


@pytest.mark.parametrize("band", sorted(_BANDS))
@given(data=st.data())
def test_branch_solve_matches_exact_roots(band, data):
    h = data.draw(_BANDS[band])
    if h < critical_constants().h_star - 1e-12:
        _check_branch_solves(band, h)


@pytest.mark.parametrize("band, h", _HARD_SOLVES)
def test_branch_solve_matches_exact_roots_where_it_is_hardest(band, h):
    _check_branch_solves(band, h)


# The fold's last doubles, h = h_star - k ulps ("below") and h_star + k ulps
# ("above"). The true fold lies 8.2e-18 above the double h_star, so every
# double up to h_star has two distinct catenoids (at h_star itself both
# solves land on one double), and every double above none. g is flat at
# the fold to its rounding, so the solves there are good to 5e-9 relative,
# not to ulps: against branch_root, 2.07e-9 at k = 70 is the worst over
# the 600 doubles nearest below h_star.
_FOLD_RTOL = 5e-9

# k = 0 is h_star, where both solves land on the same double, 23 ulps above
# tau_star; 1 and 2 are the last doubles below; 70 the largest miss
# measured; 9 007 lies within 1e-12 of h_star on either side and 9 008 just
# outside it.
_HARD_FOLD = [
    ("below", 0),
    ("below", 1),
    ("below", 2),
    ("below", 70),
    ("below", 9007),
    ("below", 9008),
    ("above", 1),
    ("above", 9007),
    ("above", 9008),
]


def _solve_outcome(h):
    """The outcome field of `solve --h h`'s record."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", "--h", repr(h)]) == 0
    return json.loads(out.getvalue())["results"]["outcome"]


def _check_fold(side, k):
    tau_star, h_star = critical_constants()
    if side == "above":
        h = h_star + k * math.ulp(h_star)
        with pytest.raises(NoExtremalError):
            solve_branches(h)
        with pytest.raises(NoExtremalError):
            energetics.force(h)
        assert _solve_outcome(h) == "NoExtremal"
        return
    h = h_star - k * math.ulp(h_star)
    lower, upper = solve_branches(h)
    if k == 0:
        # float log(h_star) may round past the true fold, so the root is
        # taken as the fold's own, the 50-digit tau_star
        assert lower.tau == upper.tau
        assert abs(lower.tau - TAU_STAR) <= _FOLD_RTOL * TAU_STAR
        with pytest.raises(NoExtremalError, match="critical half-distance") as exc:
            energetics.force(h)
        assert "above" not in str(exc.value)
        assert _solve_outcome(h) == "Critical"
        return
    assert lower.tau < tau_star < upper.tau
    # the roots lie near u* -+ delta, g's quadratic offsets from its
    # minimum at u* (see extremals._lower_branch)
    log_h, u_star = math.log(h), math.log(tau_star)
    delta = math.sqrt(2.0 * (math.log(h_star) - log_h)) / tau_star
    exact1 = branch_root(log_h, u_star - 2.0 * delta, u_star - 0.5 * delta)[1]
    exact2 = branch_root(log_h, u_star + 0.5 * delta, u_star + 2.0 * delta)[1]
    assert abs(lower.tau - exact1) <= _FOLD_RTOL * exact1
    assert abs(upper.tau - exact2) <= _FOLD_RTOL * exact2
    slope = energetics.force(h).dforce_dh
    assert math.isfinite(slope) and slope > 0.0
    assert _solve_outcome(h) == "Subcritical"


@given(st.integers(1, 200_000))
def test_the_fold_s_last_doubles_below_h_star_have_two_catenoids(k):
    _check_fold("below", k)


@given(st.integers(1, 200_000))
def test_the_fold_s_first_doubles_above_h_star_have_none(k):
    _check_fold("above", k)


@pytest.mark.parametrize("side, k", _HARD_FOLD)
def test_the_fold_where_it_is_hardest(side, k):
    _check_fold(side, k)


@pytest.mark.parametrize("start", [2.0, 3.0])
def test_an_iterate_leaving_the_bracket_is_a_library_bug(start):
    # g > 0 and rising over all of tau in [e**2, e**3] at h = 0.3, so
    # Newton walks left out of [2, 3] from either end
    with pytest.raises(ConvergenceFailureError, match=r"^branch solve left \[2\.0, 3\.0\]"):
        extremals._solve_branch(math.log(0.3), start, 2.0, 3.0)


def test_a_spent_budget_is_a_library_bug(monkeypatch):
    # the upper root at h = 0.3 takes more than one Newton step from its end
    monkeypatch.setattr(extremals, "_BRANCH_BUDGET", 1)
    message = "^branch solve missed tolerance after 1 steps"
    with pytest.raises(ConvergenceFailureError, match=message):
        solve_branches(0.3)


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
