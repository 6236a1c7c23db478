import inspect
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soapfilm import energetics, extremals
from soapfilm.errors import DomainError
from soapfilm.rootfind import find_root_bracketed

from oracles import TAU1_AT_04, TAU_STAR, bisect60

# the tolerances find_root_bracketed once defaulted to
TOLS = {"tol_x": 1e-12, "tol_f": 1e-12}


def test_linear_root_at_center():
    root = find_root_bracketed(lambda x: x, -1.0, 1.0, **TOLS)
    assert abs(root) <= 1e-12


def test_balance_root_matches_bisection_oracle():
    f = lambda t: 1.0 - t * math.tanh(t)
    root = find_root_bracketed(f, 1.0, 1.5, **TOLS)
    assert abs(root - TAU_STAR) <= 1e-12
    assert abs(root - 1.19968) <= 1e-5


def test_boundary_root_matches_bisection_oracle():
    f = lambda t: math.cosh(t) / t - 2.5
    root = find_root_bracketed(f, 0.1, TAU_STAR, **TOLS)
    assert abs(root - TAU1_AT_04) <= 1e-11
    assert abs(root - 0.439) <= 1e-3


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_root_at_an_end_is_returned_after_the_end_evaluations(end):
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.5

    lo, hi = (0.5, 2.0) if end == "lo" else (-1.0, 0.5)
    assert find_root_bracketed(f, lo, hi, **TOLS) == 0.5
    assert calls == [lo, hi]


def test_bracket_rejects_same_sign():
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0, **TOLS)


def test_bracket_requires_ordered_endpoints():
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, 1.0, 1.0, **TOLS)


def test_root_stays_inside_bracket_and_meets_tol_f():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = rng.uniform(-0.8, 0.8)
        a = rng.uniform(0.5, 50.0)
        b = rng.uniform(0.0, 10.0)
        f = lambda x: a * (x - r) + b * (x - r) ** 3
        root = find_root_bracketed(f, -1.0, 1.0, tol_x=1e-15, tol_f=1e-12)
        assert -1.0 <= root <= 1.0
        assert abs(f(root)) <= 1e-12


def test_reruns_are_bit_identical():
    f = lambda t: math.cosh(t) / t - 2.5
    first = find_root_bracketed(f, TAU_STAR, 20.0, **TOLS)
    second = find_root_bracketed(f, TAU_STAR, 20.0, **TOLS)
    assert first == second


def test_agrees_with_independent_halving():
    f = lambda t: 1.0 - t * math.tanh(t)
    ours = find_root_bracketed(f, 0.5, 2.0, **TOLS)
    theirs = bisect60(f, 0.5, 2.0)
    np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-12)


def test_rejects_nonpositive_tolerances():
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, -1.0, 1.0, tol_x=0.0, tol_f=1e-12)
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, -1.0, 1.0, tol_x=1e-12, tol_f=-1.0)


@pytest.mark.parametrize("tols", [(math.nan, 1e-12), (1e-12, math.nan)])
def test_nan_tolerance_is_a_domain_error(tols):
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, -1.0, 2.0, tol_x=tols[0], tol_f=tols[1])


def test_evaluates_ends_first_then_iterates():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.3

    root = find_root_bracketed(f, -1.0, 2.0, **TOLS)
    assert seen[:2] == [-1.0, 2.0]
    assert seen[-1] == root


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [-1.0, 2.0, 0.5])
def test_non_finite_value_is_a_domain_error(bad, where):
    # 0.5 is the first iterate, the secant point of the two ends
    f = lambda x: bad if x == where else x - 0.5
    with pytest.raises(DomainError):
        find_root_bracketed(f, -1.0, 2.0, **TOLS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [4, 6])
def test_non_finite_value_at_a_later_iterate_stops_the_solve(bad, n):
    # f is non-finite at its n-th evaluation, the (n - 2)-th iterate; no
    # iterate before it meets tol_f = 1e-300, and none after it is taken.
    seen = []

    def f(x):
        seen.append(x)
        return bad if len(seen) == n else x * x - 2.0

    with pytest.raises(DomainError):
        find_root_bracketed(f, 1.0, 2.0, tol_x=1e-12, tol_f=1e-300)
    assert len(seen) == n


@pytest.mark.parametrize(
    "lo, hi, bound", [(1.4, 1.5, 7), (1.0, 2.0, 9), (0.0, 1e6, 32)], ids=["near", "unit", "wide"]
)
def test_end_game_closes_the_bracket_with_a_minimal_step(lo, hi, bound):
    # No iterate meets tol_f = 1e-300, so the solve must end on a bracket:
    # the secant steps reach sqrt(2) to within tol_x/2, and the minimal step
    # of tol_x/2, rounded to the floats near sqrt(2), crosses it. From [0, 1e6] the secant points creep up the
    # parabola and the shrinking ball around the midpoint pulls them in:
    # 32 evaluations against bisection's 60.
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 2.0

    root = find_root_bracketed(f, lo, hi, tol_x=1e-12, tol_f=1e-300)
    assert abs(root - math.sqrt(2.0)) <= 0.5e-12
    assert len(seen) <= bound
    last, before = seen[-1], seen[-2]
    assert 0.0 < abs(last - before) <= 0.5e-12 + math.ulp(last)
    assert (f(last) > 0.0) != (f(before) > 0.0)


@settings(max_examples=200)
@given(
    root=st.floats(0.0, 1.0),
    log_slope=st.floats(-6.0, 20.0),
    log_tol_x=st.floats(-15.0, -3.0),
)
def test_a_line_of_any_slope_is_solved_to_within_tol_x(root, log_slope, log_tol_x):
    # The returned point lies in the last bracket, at most tol_x wide, or
    # meets tol_f; a line's root is bracketed wherever its sign changes.
    slope, tol_x = 10.0**log_slope, 10.0**log_tol_x
    seen = []

    def f(x):
        seen.append(x)
        return slope * (x - root)

    x = find_root_bracketed(f, 0.0, 1.0, tol_x=tol_x, tol_f=1e-300)
    assert len(seen) - 2 <= math.ceil(math.log2(1.0 / tol_x)) + N0
    assert abs(x - root) <= tol_x


@pytest.mark.parametrize(
    "f, lo, hi, root",
    [
        (math.sin, 3.0, 3.5, math.pi),
        (lambda x: x**3 - 10.0, 2.0, 3.0, 10.0 ** (1.0 / 3.0)),
    ],
    ids=["sin", "cube"],
)
def test_minimal_step_under_half_an_ulp_takes_the_next_float(f, lo, hi, root):
    # At tol_x = 1e-16, x2 + tol_x/2 rounds back to x2 near either root, and
    # the solve fell back to bisection: 46 and 54 evaluations. The next float
    # toward the midpoint is the minimal step: the secant steps take 7 and 10
    # evaluations, against 7 and 9 at 2e-15.
    counts = []
    for tol_x in (2e-15, 1e-16):
        seen = []

        def counted(x):
            seen.append(x)
            return f(x)

        x = find_root_bracketed(counted, lo, hi, tol_x=tol_x, tol_f=1e-300)
        assert abs(x - root) <= 2.0 * math.ulp(root)
        counts.append(len(seen))
    assert counts[1] <= counts[0] + 1 <= 10


def test_midpoint_of_a_bracket_near_the_float_limit_stays_finite():
    # 0.5 * (a + b) overflowed to inf here, outside the bracket.
    root = find_root_bracketed(
        lambda x: (x - 1.75e308) / 1e308, 1.6e308, 1.79e308, tol_x=1e295, tol_f=1e-300
    )
    assert 1.6e308 <= root <= 1.79e308
    assert abs(root - 1.75e308) <= 1e295


def test_bracket_whose_width_overflows_is_a_domain_error():
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, -1e308, 1e308, tol_x=1e300, tol_f=1e-12)


# Most evaluations after the two ends: bisection's ceil(log2(width/tol_x)),
# plus this many.
N0 = 4


@settings(max_examples=300)
# Known hard inputs: secant steps creeping up a steep exponential, a smooth
# case that halving only every other step overruns, and a ball that binds to
# the last step, where rounding leaves the bracket an ulp wider than tol_x.
@example(
    center=0.0, width=10.0, log2_widths=20.0, where=0.3, steep=20.0, kind="smooth", tol_f=1e-300
)
@example(
    center=0.0, width=2.0, log2_widths=9.0, where=0.875, steep=2.0, kind="smooth", tol_f=1e-300
)
@example(
    center=1.0, width=3.0, log2_widths=5.0, where=0.625, steep=12.0, kind="smooth", tol_f=1e-3
)
@given(
    center=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
    width=st.floats(1e-6, 10.0),
    log2_widths=st.floats(0.0, 98.0),
    where=st.floats(0.0, 1.0),
    steep=st.floats(0.01, 20.0),
    kind=st.sampled_from(["smooth", "step", "noisy"]),
    tol_f=st.floats(1e-300, 1e-3),
)
def test_evaluations_stay_within_bisection_plus_n0(
    center, width, log2_widths, where, steep, kind, tol_f
):
    # A root at 0 has floats dense enough around it to resolve any tol_x; a
    # steep exponential makes secant steps creep.
    lo, hi = center - where * width, center + (1.0 - where) * width
    tol_x = width / 2.0**log2_widths

    def g(x):
        return math.expm1(steep * (x - center))

    noise = 4e-16 * max(abs(g(lo)), abs(g(hi))) if kind == "noisy" else 0.0

    def f(x):
        if kind == "step":
            return 1.0 if x >= center else -1.0
        if kind == "noisy":
            return g(x) + noise * random.Random(x).uniform(-1.0, 1.0)
        return g(x)

    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    if not (f(lo) < 0.0 < f(hi)):
        return
    x = find_root_bracketed(counted, lo, hi, tol_x=tol_x, tol_f=tol_f)
    widths = (hi - lo) / tol_x
    assert len(seen) - 2 <= max(0, math.ceil(math.log2(widths)) + N0)
    assert lo <= x <= hi
    if abs(f(x)) > tol_f:
        # x lies within tol_x of a sign change of f, and f changes sign only
        # where |g| <= noise
        reach = tol_x + 4.0 * math.ulp(max(abs(lo), abs(hi)))
        assert g(x - reach) <= noise and g(x + reach) >= -noise


def _branch_g_lines():
    """Line numbers where extremals._solve_branch evaluates its g, inline."""
    lines, first = inspect.getsourcelines(extremals._solve_branch)
    found = {first + i for i, line in enumerate(lines) if "log1p(e)" in line}
    assert found, "no inline g evaluation found in _solve_branch"
    return found


def _solves(call):
    """Each branch solve the call makes: (start, lo, hi) and the u it evaluates g at.

    The branch solves evaluate g inline, so their evaluations are counted as
    executions of the lines that form it.
    """
    solves = []
    code, lines = extremals._solve_branch.__code__, _branch_g_lines()

    def in_branch_solve(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            solves[-1][1].append(frame.f_locals["u"])
        return in_branch_solve

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        args = frame.f_locals
        solves.append(((args["u"], args["lo"], args["hi"]), []))
        return in_branch_solve

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(previous)
    return solves


def _evaluations(call):
    """Branch-solve evaluations the call makes, over all its solves."""
    return sum(len(us) for _, us in _solves(call))


# caller -> (call, bound). Bounds are the counts once measured with every
# solve in find_root_bracketed plus 25 %: 11, 7 and 8. The branch solves'
# own Newton loop makes 9, 4 and 6: at 1e-300 u_1 is near -690, where an
# ulp (1.1e-13) exceeds g's rounding, and Newton lands on u_1's float at
# once; the next Newton point rounds back to it, which ends the solve.
# critical_constants and goldschmidt_constant solve no equation when
# called: tau_star is three Newton steps taken when extremals loads, and
# h_G Newton steps on the Lambert W equation.
CALLERS = {
    "solve_branches(0.3)": (lambda: extremals.solve_branches(0.3), 13),
    "solve_branches(1e-300)": (lambda: extremals.solve_branches(1e-300), 8),
    "solve_branches(h* - 1e-10)": (
        lambda: extremals.solve_branches(extremals.critical_constants().h_star - 1e-10),
        10,
    ),
}


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_evaluation_counts_per_caller(name):
    call, bound = CALLERS[name]
    # every caller makes two solves, each evaluating at least its start
    assert 2 <= _evaluations(call) <= bound


# band -> (mean evaluations per solve_branches, per force), about 10 % above
# the 8.84/3.99, 4.48/2.00 and 7.06/3.54 measured on these 500 h per band
# (bulk, tiny and fold bands as the benchmark draws them, from
# random.Random(2024)).
EVALUATION_BOUNDS = {"bulk": (9.7, 4.4), "tiny": (4.9, 2.2), "fold": (7.8, 3.9)}


def _evaluation_bands():
    h_star = extremals.critical_constants().h_star
    rng = random.Random(2024)
    bands = {"bulk": [rng.uniform(0.01, h_star - 1e-4) for _ in range(500)]}
    bands["tiny"] = [10.0 ** rng.uniform(-307.0, -2.0) for _ in range(500)]
    bands["fold"] = [h_star - 10.0 ** rng.uniform(-12.0, -4.0) for _ in range(500)]
    return bands


@pytest.mark.parametrize("band", sorted(EVALUATION_BOUNDS))
def test_branch_solves_evaluate_from_their_start_alone(band):
    hs = _evaluation_bands()[band]
    per_solve_branches, per_force = EVALUATION_BOUNDS[band]
    both = _solves(lambda: [extremals.solve_branches(h) for h in hs])
    lower = _solves(lambda: [energetics.force(h) for h in hs])
    assert sum(len(us) for _, us in both) <= per_solve_branches * len(hs)
    assert sum(len(us) for _, us in lower) <= per_force * len(hs)
    for (start, lo, hi), us in both + lower:
        # at most 8 evaluations (7 measured over 60 000 h), the first at the
        # start and none at another bracket end
        assert 1 <= len(us) <= 8 and us[0] == start
        assert lo not in us[1:] and hi not in us[1:]
