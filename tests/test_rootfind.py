import math

import numpy as np
import pytest

from soapfilm.errors import DomainError, NoSignChangeError
from soapfilm.rootfind import Bracket, find_root_bracketed

from oracles import TAU1_AT_04, TAU_STAR, bisect60

# the tolerances find_root_bracketed once defaulted to
TOLS = {"tol_x": 1e-12, "tol_f": 1e-12}


def test_linear_root_at_center():
    root = find_root_bracketed(lambda x: x, Bracket.from_function(lambda x: x, -1.0, 1.0), **TOLS)
    assert abs(root) <= 1e-12


def test_balance_root_matches_bisection_oracle():
    f = lambda t: 1.0 - t * math.tanh(t)
    root = find_root_bracketed(f, Bracket.from_function(f, 1.0, 1.5), **TOLS)
    assert abs(root - TAU_STAR) <= 1e-12
    assert abs(root - 1.19968) <= 1e-5


def test_boundary_root_matches_bisection_oracle():
    f = lambda t: math.cosh(t) / t - 2.5
    root = find_root_bracketed(f, Bracket.from_function(f, 0.1, TAU_STAR), **TOLS)
    assert abs(root - TAU1_AT_04) <= 1e-11
    assert abs(root - 0.439) <= 1e-3


def test_bracket_from_function_rejects_same_sign():
    with pytest.raises(NoSignChangeError):
        Bracket.from_function(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bracket_requires_ordered_endpoints():
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0, -1.0, 1.0)


def test_root_stays_inside_bracket_and_meets_tol_f():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = rng.uniform(-0.8, 0.8)
        a = rng.uniform(0.5, 50.0)
        b = rng.uniform(0.0, 10.0)
        f = lambda x: a * (x - r) + b * (x - r) ** 3
        root = find_root_bracketed(
            f, Bracket.from_function(f, -1.0, 1.0), tol_x=1e-15, tol_f=1e-12
        )
        assert -1.0 <= root <= 1.0
        assert abs(f(root)) <= 1e-12


def test_reruns_are_bit_identical():
    f = lambda t: math.cosh(t) / t - 2.5
    first = find_root_bracketed(f, Bracket.from_function(f, TAU_STAR, 20.0), **TOLS)
    second = find_root_bracketed(f, Bracket.from_function(f, TAU_STAR, 20.0), **TOLS)
    assert first == second


def test_agrees_with_independent_halving():
    f = lambda t: 1.0 - t * math.tanh(t)
    ours = find_root_bracketed(f, Bracket.from_function(f, 0.5, 2.0), **TOLS)
    theirs = bisect60(f, 0.5, 2.0)
    np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-12)


def test_rejects_nonpositive_tolerances():
    b = Bracket.from_function(lambda x: x, -1.0, 1.0)
    with pytest.raises(ValueError):
        find_root_bracketed(lambda x: x, b, tol_x=0.0, tol_f=1e-12)
    with pytest.raises(ValueError):
        find_root_bracketed(lambda x: x, b, tol_x=1e-12, tol_f=-1.0)


@pytest.mark.parametrize("tols", [(math.nan, 1e-12), (1e-12, math.nan)])
def test_nan_tolerance_is_a_domain_error(tols):
    b = Bracket.from_function(lambda x: x, -1.0, 2.0)
    with pytest.raises(DomainError):
        find_root_bracketed(lambda x: x, b, tol_x=tols[0], tol_f=tols[1])
