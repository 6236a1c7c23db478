import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from soapfilm import spectrum
from soapfilm.errors import DomainError
from soapfilm.extremals import critical_constants
from soapfilm.grids import TestFunction, composite_simpson
from soapfilm.spectrum import (
    dense_eigenvalues,
    eigenvalues,
    negative_direction,
    shoot,
)
from soapfilm.variation import mu

from fresh import loads
from oracles import TAU_STAR, discrete_eigenvalue, legendre_pins, rayleigh_quotient, rk4_sweep


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


@pytest.mark.parametrize("n", [256, 257, 1000, 1001, 2048])
@pytest.mark.parametrize("tau", [0.2, TAU_STAR, 5.0])
def test_shoot_matches_scalar_rk4_oracle(tau, n):
    # The oracle steps over all of [-tau, tau]; shoot over [0, tau] only. n =
    # 1000 is not a power of two, so the last doubling level is partial, and
    # for odd n the centre step straddles s = 0. Below lam = 0 the parity
    # solutions grow like exp(sqrt(-2 lam) s), and the rebuilt left half, a
    # difference of the two, must not read noise as nodes.
    for lam in (-100.0, -1.0, 0.0, 1.0, 30.0, 700.0, 3000.0):
        end_ref, nodes_ref, trajectory = rk4_sweep(tau, lam, n)
        end, nodes = shoot(tau, lam, n)
        assert nodes == nodes_ref
        scale = max(1.0, max(abs(x) for x in trajectory))
        assert abs(end - end_ref) <= 1e-12 * scale


@pytest.mark.parametrize("n", [256, 257, 1001, 2048])
def test_every_sweep_and_end_value_builds_half_the_steps(monkeypatch, n):
    # one _steps call per shot and per end value
    built = []
    calls = {"_shoot": 0, "_end": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(spectrum, name, wrapper)

    def recording_steps(ab, mu):
        m = original(ab, mu)
        built.append(m.shape[2])
        return m

    original = spectrum._steps
    monkeypatch.setattr(spectrum, "_steps", recording_steps)
    counting("_shoot", spectrum._shoot)
    counting("_end", spectrum._end)
    eigenvalues(1.3, 3, n)
    assert set(built) == {(n + 1) // 2}
    assert len(built) == calls["_shoot"] + calls["_end"]


@pytest.mark.parametrize("tau", [0.2, TAU_STAR, 5.0])
def test_eigenfunctions_match_scalar_rk4_trajectory(tau):
    # The eigenfunctions are rebuilt on [-tau, tau] from the half sweep; the
    # oracle steps over the whole interval at the same lambda_k.
    spec = eigenvalues(tau, 5)
    for k, lam in enumerate(spec.lambdas, start=1):
        psi = spec.eigenfunction(k)
        trajectory = np.array(rk4_sweep(tau, lam, 2048)[2])
        trajectory[-1] = 0.0
        want = trajectory / np.max(np.abs(trajectory))
        got = psi.values / np.max(np.abs(psi.values))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_legendre_pins_are_the_known_closed_forms():
    pins = legendre_pins()
    assert len(pins) == 36
    # Q_1(tanh s) = -mu(s), which vanishes at tau_star; P_2 = (3x^2 - 1)/2.
    assert (TAU_STAR, 1, 1.0) in pins
    p2 = [tau for tau, k, lam in pins if (k, lam) == (1, 3.0)]
    assert p2 == [pytest.approx(math.atanh(3.0**-0.5), rel=1e-15)]


@pytest.mark.parametrize(
    "tau, k, lam", [p for p in legendre_pins() if p[1] <= 5], ids=lambda x: f"{x:.6g}"
)
def test_eigenvalues_meet_their_accuracy_contract_on_legendre_pins(tau, k, lam):
    # lam = n(n+1)/2 is exact; the miss is RK4's O(dt^4) error at the default
    # n, at most 2.3e-10 relative (Q_5 at tau = 2.51).
    got = eigenvalues(tau, k).lambdas[k - 1]
    assert abs(got - lam) <= 3e-10 * lam


def test_eigenvalues_shoots_each_lambda_once(monkeypatch):
    calls = []
    original = spectrum._shoot

    def counting_shoot(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(spectrum, "_shoot", counting_shoot)
    eigenvalues(TAU_STAR, 5)
    assert len(calls) <= 73
    assert len(set(calls)) == len(calls)
    calls.clear()
    eigenvalues(TAU_STAR, 1)
    assert len(calls) <= 18


@given(
    log_tau=st.floats(math.log(1e-3), math.log(100.0)),
    lam=st.floats(0.0, 3000.0),
    n=st.sampled_from([256, 257, 1000, 2048]),
)
def test_pairwise_end_value_matches_shoot(log_tau, lam, n):
    # n = 257 and 1000 make odd levels in the pairwise product.
    tau = math.exp(log_tau)
    dt = 2.0 * tau / n
    ab = spectrum._coefficients(spectrum._samples(tau, dt, n))
    end = dt * spectrum._end(spectrum._steps(ab, lam * dt * dt), n % 2)
    psi = dt * spectrum._sweep(spectrum._steps(ab, lam * dt * dt), n % 2)
    assert abs(end - shoot(tau, lam, n)[0]) <= 1e-12 * np.max(np.abs(psi))


def test_eigenvalues_count_shots_and_end_values(monkeypatch):
    # Node counts come from the block boundaries of one pairwise pass here,
    # never from a full sweep; the root solve reads only psi(tau). The bounds
    # sit 14-36 % above the measured counts 7/40, 8/36 and 1/11.
    counts = {}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(spectrum, name, wrapper)

    counting("_shoot", spectrum._shoot)
    counting("_end", spectrum._end)
    counting("_sweep", spectrum._sweep)
    counting("_blocks", spectrum._blocks)
    for tau, k, shots, ends in ((TAU_STAR, 5, 8, 51), (0.2, 5, 10, 43), (5.0, 1, 1, 15)):
        counts.update(_shoot=0, _end=0, _sweep=0, _blocks=0)
        eigenvalues(tau, k)
        assert counts["_shoot"] <= shots and counts["_end"] <= ends, (tau, k, counts)
        assert counts["_sweep"] == 0, (tau, k, counts)
        assert counts["_blocks"] == counts["_shoot"] + counts["_end"], (tau, k, counts)


def _sign_changes(psi):
    positive = psi > 0.0
    signs = positive[positive | (psi < 0.0)]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


@given(
    log_tau=st.floats(math.log(1e-3), math.log(300.0)),
    n=st.sampled_from([256, 257, 1000, 1001, 2048]),
    share=st.floats(0.0, 1.0, exclude_min=True),
    k=st.integers(1, 5),
    shift=st.sampled_from([None, -1e-13, 1e-13]),
)
def test_block_boundaries_count_the_nodes_of_a_full_sweep(log_tau, n, share, k, shift):
    # Wherever shoot reads the count at the block boundaries, it must be the
    # count over all n+1 nodes: at lambdas up to the bound, and on either
    # side of an eigenvalue, where psi(tau) is all but zero.
    tau = math.exp(log_tau)
    dt = 2.0 * tau / n
    if shift is None:
        length = spectrum._longest_block(n // 2) * dt
        lam = share * (math.pi / 4.0) ** 2 / (2.0 * length * length)
    else:
        try:
            lam = eigenvalues(tau, k, n).lambdas[k - 1] * (1.0 + shift)
        except DomainError:
            assume(False)
    assume(spectrum._boundaries_count_nodes(lam, dt, n))
    ab = spectrum._coefficients(spectrum._samples(tau, dt, n))
    psi = spectrum._sweep(spectrum._steps(ab, lam * dt * dt), n % 2)
    assert spectrum._shoot(ab, lam, tau, dt, n)[1] == _sign_changes(psi)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [0.2, 1.2, 5.0])
def test_eigenvalues_take_no_full_sweep(monkeypatch, tau, k):
    # The node counts come from the block boundaries; eigenfunctions, the
    # only readers of every node, are swept on request.
    def no_sweep(*args):
        raise AssertionError("full prefix sweep")

    monkeypatch.setattr(spectrum, "_sweep", no_sweep)
    assert eigenvalues(tau, k).lambdas.size == k


@given(
    tau=st.floats(math.log(1e-3), math.log(800.0)).map(math.exp),
    k=st.integers(1, 10),
    n=st.sampled_from([256, 257, 300, 511, 1000, 1001, 2048]),
)
@example(tau=229.3649820054575, k=8, n=1001)
@example(tau=58.572496141012124, k=7, n=257)
@example(tau=117.01595612521703, k=8, n=511)
@example(tau=59.82089361017262, k=8, n=300)
def test_eigenvalues_raise_only_domain_errors(tau, k, n):
    # Below 3/dt^2 the node count rises with lambda; up to RK4's stability
    # bound 4/dt^2 it need not, and the bisection on it could fail.
    try:
        spec = eigenvalues(tau, k, n)
    except DomainError:
        return
    assert spec.lambdas.size == k


def test_eigenfunction_rejects_k_outside_the_spectrum():
    spec = eigenvalues(1.2, 2, n=256)
    assert spec.eigenfunction(2).n == 257
    for k in (0, -1, 3, 1.5):
        with pytest.raises(DomainError):
            spec.eigenfunction(k)


def test_import_does_not_load_scipy_linalg():
    assert not loads("import soapfilm", "scipy.linalg")


def test_minimize_does_not_load_scipy_linalg():
    # The Newton solve and the saddle escape's negative direction run
    # without scipy.linalg.
    argv = ["minimize", "--h", "0.45", "--n", "64", "--init", "upper_perturbed"]
    code = f"import os, soapfilm.cli as cli; cli.main({argv!r} + ['--out', os.devnull])"
    assert not loads(code, "scipy.linalg")


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
    # The ground eigenfunction is the balance function mu up to scale.
    psi = spec.eigenfunction(1)
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


@pytest.mark.parametrize("tau", [0.2, TAU_STAR, 1.2, 5.0])
def test_eigenvalues_pinned_to_discrete_root(tau):
    # The roots of the discrete RK4 end value, bisected to adjacent floats by
    # an independent scalar loop; the solve stops within a few ulps of them.
    want = [discrete_eigenvalue(tau, k) for k in range(1, 6)]
    np.testing.assert_allclose(eigenvalues(tau, 5).lambdas, want, rtol=1e-14, atol=0.0)


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
    for k in range(1, 6):
        psi = spec.eigenfunction(k)
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
    functions = [spec.eigenfunction(k) for k in (1, 2, 3)]
    weight = 2.0 / np.cosh(functions[0].grid) ** 2
    dx = functions[0].spacing
    for i in range(3):
        for j in range(i + 1, 3):
            inner = composite_simpson(weight * functions[i].values * functions[j].values, dx)
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
        rayleigh_quotient(spec.eigenfunction(1)), lam1, rtol=1e-6, atol=0.0
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


def test_negative_direction_below_unit_eigenvalue():
    psi = negative_direction(2.0)
    weight = 2.0 / np.cosh(psi.grid) ** 2
    norm = composite_simpson(weight * psi.values**2, psi.spacing)
    np.testing.assert_allclose(norm, 1.0, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(rayleigh_quotient(psi), 0.4315727457719324, rtol=1e-5)


def test_negative_direction_requires_supercritical_tau():
    with pytest.raises(DomainError):
        negative_direction(0.5)
    with pytest.raises(DomainError):
        negative_direction(TAU_STAR)


def test_eigenvalues_deterministic():
    a = eigenvalues(1.7, 3, n=1024)
    b = eigenvalues(1.7, 3, n=1024)
    assert np.array_equal(a.lambdas, b.lambdas)
    for k in (1, 2, 3):
        assert np.array_equal(a.eigenfunction(k).values, b.eigenfunction(k).values)


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
