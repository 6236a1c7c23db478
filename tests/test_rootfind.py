import math

import numpy as np
import pytest

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
