import numpy as np
import pytest

from soapfilm.errors import DomainError
from soapfilm.grids import TestFunction, check_uniform_grid, composite_simpson, sampled_derivative


def test_simpson_exact_on_cubic_even_intervals():
    x = np.linspace(0.0, 2.0, 9)
    got = composite_simpson(x**3 - 2.0 * x, x[1] - x[0])
    np.testing.assert_allclose(got, 0.0, rtol=0.0, atol=1e-14)


def test_simpson_exact_on_cubic_odd_intervals():
    x = np.linspace(0.0, 2.0, 10)
    got = composite_simpson(x**3, x[1] - x[0])
    np.testing.assert_allclose(got, 4.0, rtol=0.0, atol=1e-13)


def test_simpson_fourth_order_on_sine():
    exact = 2.0
    errs = []
    for n in (65, 129, 257):
        x = np.linspace(0.0, np.pi, n)
        errs.append(abs(composite_simpson(np.sin(x), x[1] - x[0]) - exact))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_simpson_rejects_short_input():
    with pytest.raises(DomainError):
        composite_simpson(np.ones(4), 0.1)


def test_sampled_derivative_second_order():
    errs = []
    for n in (65, 129):
        x = np.linspace(-1.0, 1.0, n)
        d = sampled_derivative(np.exp(x), x[1] - x[0])
        errs.append(np.max(np.abs(d - np.exp(x))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_check_uniform_grid_returns_spacing():
    dx = check_uniform_grid(np.linspace(-2.0, 2.0, 17))
    np.testing.assert_allclose(dx, 0.25, rtol=0.0, atol=1e-15)


def test_check_uniform_grid_rejects_nonuniform():
    grid = np.array([0.0, 0.1, 0.25, 0.3, 0.4])
    with pytest.raises(DomainError):
        check_uniform_grid(grid)


def test_check_uniform_grid_rejects_decreasing():
    with pytest.raises(DomainError):
        check_uniform_grid(np.linspace(1.0, -1.0, 9))


def test_test_function_requires_zero_endpoints():
    grid = np.linspace(-1.0, 1.0, 17)
    values = np.ones(17)
    with pytest.raises(DomainError):
        TestFunction(grid, values)


def test_test_function_requires_matching_shapes():
    with pytest.raises(DomainError, match="same shape"):
        TestFunction(np.linspace(-1.0, 1.0, 17), np.zeros(16))


def test_test_function_requires_symmetric_grid():
    grid = np.linspace(0.0, 1.0, 17)
    values = np.zeros(17)
    with pytest.raises(DomainError):
        TestFunction(grid, values)


def test_test_function_requires_enough_samples():
    grid = np.linspace(-1.0, 1.0, 15)
    values = np.zeros(15)
    with pytest.raises(DomainError):
        TestFunction(grid, values)


def test_sample_clamps_endpoints():
    psi = TestFunction.sample(lambda s: np.cos(0.5 * np.pi * s), 1.0, 33)
    assert psi.values[0] == 0.0
    assert psi.values[-1] == 0.0
    assert psi.halfwidth == 1.0
    assert psi.n == 33
    np.testing.assert_allclose(psi.spacing, 2.0 / 32.0, rtol=0.0, atol=1e-16)


def test_simpson_on_five_intervals():
    # the 3/8 rule takes the last three intervals, Simpson the first two
    x = np.linspace(0.0, 1.0, 6)
    np.testing.assert_allclose(composite_simpson(x**3, x[1] - x[0]), 0.25, rtol=0.0, atol=1e-15)

