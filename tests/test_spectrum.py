import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from soapfilm import spectrum
from soapfilm.errors import DomainError, NotSupercriticalError, ZeroDenominatorError
from soapfilm.extremals import critical_constants
from soapfilm.grids import TestFunction, composite_simpson
from soapfilm.spectrum import (
    DENSITY_ID,
    dense_eigenvalues,
    eigenvalues,
    negative_direction,
    rayleigh_quotient,
    shoot,
)
from soapfilm.variation import mu

from oracles import TAU_STAR, rk4_sweep


def test_shoot_flat_string_at_lambda_zero():
    end, nodes = shoot(1.3, 0.0)
    np.testing.assert_allclose(end, 2.6, rtol=0.0, atol=1e-12)
    assert nodes == 0


def test_shoot_hits_zero_at_critical_unit_eigenvalue():
    end, nodes = shoot(TAU_STAR, 1.0)
    assert abs(end) <= 1e-10
    assert nodes == 0
    end_half, nodes_half = shoot(TAU_STAR, 0.5)
    assert end_half > 1e-2
    assert nodes_half == 0


@pytest.mark.parametrize("n", [256, 1000, 2048])
@pytest.mark.parametrize("tau", [0.2, TAU_STAR, 5.0])
def test_shoot_matches_scalar_rk4_oracle(tau, n):
    # n = 1000 is not a power of two, so the last doubling level is partial.
    for lam in (0.0, 1.0, 30.0, 700.0, 3000.0):
        end_ref, nodes_ref, trajectory = rk4_sweep(tau, lam, n)
        end, nodes = shoot(tau, lam, n)
        assert nodes == nodes_ref
        scale = max(1.0, max(abs(x) for x in trajectory))
        assert abs(end - end_ref) <= 1e-12 * scale


def test_eigenvalues_shoots_each_lambda_once(monkeypatch):
    calls = []
    original = spectrum.shoot

    def counting_shoot(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(spectrum, "shoot", counting_shoot)
    eigenvalues(TAU_STAR, 5)
    assert len(calls) <= 73
    assert len(set(calls)) == len(calls)
    calls.clear()
    eigenvalues(TAU_STAR, 1)
    assert len(calls) <= 18


def _loads_scipy_linalg(code):
    code += "; import sys; print('scipy.linalg' in sys.modules)"
    src = os.path.dirname(os.path.dirname(spectrum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return out.strip() != "False"


def test_import_does_not_load_scipy_linalg():
    assert not _loads_scipy_linalg("import soapfilm")


def test_minimize_does_not_load_scipy_linalg():
    # The Newton solve and the saddle escape's negative direction run
    # without scipy.linalg.
    argv = ["minimize", "--h", "0.45", "--n", "64", "--init", "upper_perturbed"]
    code = f"import os, soapfilm.cli as cli; cli.main({argv!r} + ['--out', os.devnull])"
    assert not _loads_scipy_linalg(code)


def test_shoot_rejects_bad_input():
    with pytest.raises(DomainError):
        shoot(0.0, 1.0)
    with pytest.raises(DomainError):
        shoot(1.0, 1.0, n=100)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: shoot(x, 1.0),
        lambda x: shoot(1.0, x),
        lambda x: eigenvalues(x, 2),
        lambda x: dense_eigenvalues(x, 2),
        negative_direction,
    ],
    ids=["shoot_tau", "shoot_lambda", "eigenvalues", "dense_eigenvalues", "negative_direction"],
)
def test_non_finite_input_is_a_domain_error(call, bad):
    with pytest.raises(DomainError):
        call(bad)


def test_unit_eigenvalue_at_critical_parameter():
    spec = eigenvalues(TAU_STAR, 1)
    np.testing.assert_allclose(spec.lambdas[0], 1.0, rtol=0.0, atol=1e-4)
    assert spec.density_id == DENSITY_ID
    # The ground eigenfunction is the balance function mu up to scale.
    psi = spec.eigenfunctions[0]
    center = psi.values[psi.n // 2]
    dev = np.max(np.abs(psi.values - center * mu(psi.grid)))
    assert dev <= 1e-3


def test_first_five_critical_eigenvalues_frozen():
    spec = eigenvalues(TAU_STAR, 5)
    np.testing.assert_allclose(
        spec.lambdas,
        [1.0, 4.78414876, 11.12631296, 20.01390269, 31.44387096],
        rtol=1e-6,
        atol=0.0,
    )


def test_eigenvalue_window_by_interval_width():
    np.testing.assert_allclose(
        eigenvalues(0.3, 1).lambdas[0], 13.867573470135811, rtol=1e-6
    )
    np.testing.assert_allclose(
        eigenvalues(2.0, 1).lambdas[0], 0.4315727457719324, rtol=1e-6
    )
    assert eigenvalues(0.3, 1).lambdas[0] > 10.0
    assert eigenvalues(2.0, 1).lambdas[0] < 1.0


def test_eigenfunction_structure():
    spec = eigenvalues(1.0, 5, n=1024)
    assert np.all(np.diff(spec.lambdas) > 0.0)
    assert np.all(np.array(spec.lambdas) > 0.0)
    for k, psi in enumerate(spec.eigenfunctions, start=1):
        interior = psi.values[1:-1]
        signs = np.sign(interior[np.abs(interior) > 1e-9])
        nodes = int(np.sum(signs[1:] * signs[:-1] < 0))
        assert nodes == k - 1
        weight = 2.0 / np.cosh(psi.grid) ** 2
        norm = composite_simpson(weight * psi.values**2, psi.spacing)
        np.testing.assert_allclose(norm, 1.0, rtol=0.0, atol=1e-8)
        d = np.diff(psi.values)
        assert d[0] > 0.0


def test_eigenfunctions_orthogonal_in_weighted_inner_product():
    spec = eigenvalues(1.5, 3, n=2048)
    weight = 2.0 / np.cosh(spec.eigenfunctions[0].grid) ** 2
    dx = spec.eigenfunctions[0].spacing
    for i in range(3):
        for j in range(i + 1, 3):
            inner = composite_simpson(
                weight * spec.eigenfunctions[i].values * spec.eigenfunctions[j].values, dx
            )
            assert abs(inner) <= 1e-6


def test_ground_eigenvalue_decreases_with_interval_width():
    taus = np.arange(0.4, 3.01, 0.2)
    lams = [eigenvalues(float(t), 1, n=1024).lambdas[0] for t in taus]
    assert np.all(np.diff(lams) < 0.0)


def test_shooting_matches_dense_solver():
    for tau in (0.5, TAU_STAR, 2.0):
        lams = eigenvalues(tau, 5).lambdas
        dense = dense_eigenvalues(tau, 5)
        np.testing.assert_allclose(lams, dense, rtol=1e-4, atol=0.0)


def test_shooting_refines_at_fourth_order():
    cc = critical_constants()
    errs = [abs(eigenvalues(cc.tau_star, 1, n=n).lambdas[0] - 1.0) for n in (512, 1024, 2048)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0
    assert 12.0 <= errs[1] / errs[2] <= 20.0


def test_rayleigh_quotient_properties():
    spec = eigenvalues(1.0, 1, n=2048)
    lam1 = spec.lambdas[0]
    np.testing.assert_allclose(
        rayleigh_quotient(spec.eigenfunctions[0]), lam1, rtol=1e-6, atol=0.0
    )
    psi_mu = TestFunction.sample(mu, TAU_STAR, 2049)
    np.testing.assert_allclose(rayleigh_quotient(psi_mu), 1.0, rtol=0.0, atol=1e-4)
    rng = np.random.default_rng(17)
    viol = 0
    for _ in range(200):
        coeffs = rng.uniform(-1.0, 1.0, size=5)
        fn = lambda s: sum(
            c * np.sin((k + 1) * np.pi * (s + 1.0) / 2.0) for k, c in enumerate(coeffs)
        )
        psi = TestFunction.sample(fn, 1.0, 257)
        if rayleigh_quotient(psi) < lam1 - 1e-4:
            viol += 1
    assert viol == 0


def test_rayleigh_quotient_rejects_null_function():
    psi = TestFunction.sample(lambda s: np.zeros_like(s), 1.0, 65)
    with pytest.raises(ZeroDenominatorError):
        rayleigh_quotient(psi)


def test_negative_direction_below_unit_eigenvalue():
    psi = negative_direction(2.0)
    weight = 2.0 / np.cosh(psi.grid) ** 2
    norm = composite_simpson(weight * psi.values**2, psi.spacing)
    np.testing.assert_allclose(norm, 1.0, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(rayleigh_quotient(psi), 0.4315727457719324, rtol=1e-5)


def test_negative_direction_requires_supercritical_tau():
    with pytest.raises(NotSupercriticalError):
        negative_direction(0.5)
    with pytest.raises(NotSupercriticalError):
        negative_direction(TAU_STAR)


def test_eigenvalues_deterministic():
    a = eigenvalues(1.7, 3, n=1024)
    b = eigenvalues(1.7, 3, n=1024)
    assert np.array_equal(a.lambdas, b.lambdas)
    for fa, fb in zip(a.eigenfunctions, b.eigenfunctions):
        assert np.array_equal(fa.values, fb.values)


@pytest.mark.parametrize("tau", [10.0, 20.0, 50.0, 100.0])
def test_dense_solver_at_large_tau(tau):
    # The bisection tolerance is absolute: eps*||A|| would grow like cosh^2(tau).
    dense = dense_eigenvalues(tau, 3)
    assert np.all(dense > 0.0) and np.all(np.diff(dense) > 0.0)
    np.testing.assert_allclose(dense, eigenvalues(tau, 3).lambdas, rtol=1e-3, atol=0.0)


def test_dense_solver_rejects_bad_input():
    with pytest.raises(DomainError):
        dense_eigenvalues(-1.0, 3)
    with pytest.raises(DomainError):  # where the tridiagonal bisection fails
        dense_eigenvalues(250.0, 3)
    with pytest.raises(DomainError):
        eigenvalues(1.0, 0)


def test_spectrum_where_cosh_overflows():
    # Beyond |s| ~ 355 the density underflows to 0: shooting goes on quietly,
    # while the dense oracle's 1/rho scaling cannot be formed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = eigenvalues(800.0, 1).lambdas[0]
        shoot(800.0, 1.0)
    assert 0.0 < lam < 1e-3
    with pytest.raises(DomainError):
        dense_eigenvalues(800.0, 1)
