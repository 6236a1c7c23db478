import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from soapfilm.variation import mu, mu_prime, q_form

from fresh import loads
from oracles import (
    TAU_STAR,
    characteristic_pair,
    discrete_eigenvalue,
    exact_rayleigh_quotient,
    jacobi_ground_energy,
    legendre_characteristic,
    legendre_pins,
    rayleigh_quotient,
    rk4_sweep,
    soliton_ground_state,
    string_eigenvalue,
)


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
@pytest.mark.parametrize("tau", [0.2, TAU_STAR, 5.0, 300.0, 1e4])
def test_shoot_matches_scalar_rk4_oracle(tau, n):
    # n = 1000 is not a power of two, so the last doubling level is partial.
    # Below lam = 0 the solution grows like exp(sqrt(-2 lam) s) and must not
    # be read as having nodes. At tau = 300 and 1e4 the density underflows
    # over most of the grid, and psi grows linearly there.
    for lam in (-100.0, -1.0, 0.0, 1.0, 30.0, 700.0, 3000.0):
        end_ref, nodes_ref, trajectory = rk4_sweep(tau, lam, n)
        end, nodes = shoot(tau, lam, n)
        assert nodes == nodes_ref
        scale = max(1.0, max(abs(x) for x in trajectory))
        assert abs(end - end_ref) <= 1e-12 * scale


@pytest.mark.parametrize("n", [256, 257, 1001, 2048])
def test_every_sweep_builds_n_steps(monkeypatch, n):
    # one n-step sweep over [-tau, tau] per shot
    built = []
    original = spectrum._trajectory

    def recording_trajectory(tau, lam, n):
        psi = original(tau, lam, n)
        built.append(psi.size - 1)
        return psi

    monkeypatch.setattr(spectrum, "_trajectory", recording_trajectory)
    shoot(1.3, 7.0, n)
    assert built == [n]


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
    # lam = n(n+1)/2 is exact, and so is the characteristic function; the
    # miss is rounding, the pin's tau included (1.1e-15 measured).
    got = eigenvalues(tau, k).lambdas[k - 1]
    assert abs(got - lam) <= 1e-13 * lam


# (tau, nu) on both scales: the series about s = 0 below tanh(tau) = 0.732,
# where psi_e(0) = psi_o'(0) = 1, and the Ferrers form above
CHARACTERISTIC_POINTS = [(0.3, 2.5), (TAU_STAR, 1.3), (2.0, 4.7), (30.0, 0.1)]


@pytest.mark.parametrize("tau, nu", CHARACTERISTIC_POINTS)
def test_characteristic_functions_match_mpmath(tau, nu):
    # Positive multiples of psi_e and psi_o, so the signs are mpmath's; on
    # the library's scale, the values too.
    got = spectrum._characteristic(tau)(nu)
    for g, w in zip(got, legendre_characteristic(tau, nu)):
        assert (g > 0.0) == (w > 0)
    want = characteristic_pair(tau, nu, math.tanh(tau) >= math.sqrt(3.0) - 1.0)
    scale = float(abs(want[0]) + abs(want[1]))
    assert max(abs(g - float(w)) for g, w in zip(got, want)) <= 1e-14 * scale


@pytest.mark.parametrize("tau, nu", CHARACTERISTIC_POINTS)
def test_characteristic_angle_matches_mpmath(tau, nu):
    # The eigenvalue solve reads the angle of (psi_e, w*psi_o).
    even, odd = spectrum._characteristic(tau)(nu)
    want = characteristic_pair(tau, nu, math.tanh(tau) >= math.sqrt(3.0) - 1.0)
    assert abs(math.atan2(odd, even) - math.atan2(float(want[1]), float(want[0]))) <= 1e-14


@settings(max_examples=60)
@given(
    log_tau=st.floats(math.log(1e-2), math.log(300.0)),
    k=st.integers(1, 8),
)
@example(log_tau=math.log(1e-2), k=8)
@example(log_tau=math.log(300.0), k=8)
def test_the_phase_residual_is_negative_exactly_below_each_root(log_tau, k):
    # Each root solve starts from a bracket where the residual is < 0 at lo
    # and >= 0 at hi: its sign is that of N >= k, whatever the pair's scale.
    ends = []
    solve = spectrum.find_root_bracketed

    def recording(f, lo, hi, **tols):
        ends.append((f(lo), f(hi)))
        return solve(f, lo, hi, **tols)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "find_root_bracketed", recording)
        eigenvalues(math.exp(log_tau), k)
    assert len(ends) == k
    for at_lo, at_hi in ends:
        assert at_lo < 0.0 <= at_hi


@settings(max_examples=40)
@given(
    log_tau=st.floats(math.log(0.05), math.log(300.0)),
    k=st.integers(1, 5),
)
@example(log_tau=math.log(300.0), k=5)
@example(log_tau=math.log(0.05), k=5)
def test_eigenvalues_are_the_mpmath_roots(log_tau, k):
    # The library's lambda_k against a 50-digit mpmath root of the same
    # condition, from legenp/legenq: no series is shared.
    tau = math.exp(log_tau)
    got = eigenvalues(tau, k).lambdas[k - 1]
    assert abs(got - string_eigenvalue(tau, k, got)) <= 1e-13 * got


def _evaluations(monkeypatch):
    """Record the nu of every characteristic-function evaluation eigenvalues makes."""
    calls = []
    original = spectrum._characteristic

    def counting(tau):
        psi = original(tau)

        def recorded(nu):
            calls.append(nu)
            return psi(nu)

        return recorded

    monkeypatch.setattr(spectrum, "_characteristic", counting)
    return calls


def test_eigenvalues_take_few_evaluations(monkeypatch):
    # Each nu is evaluated once. The bounds sit 20-25 % above the worst
    # measured on these 40 tau, 8, 13 and 33 evaluations for k = 1, 2, 5;
    # over the benchmark's tau band [0.2, 5], 5.8 per eigenvalue on average.
    calls = _evaluations(monkeypatch)
    for i in range(40):
        tau = math.exp(math.log(1e-2) + math.log(3e4) * i / 39)
        for k in (1, 2, 5):
            calls.clear()
            eigenvalues(tau, k)
            assert len(calls) <= {1: 10, 2: 16, 5: 40}[k], (tau, k, len(calls))
            assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("tau", [1e-150, 0.2, TAU_STAR, 5.0, 300.0, 1e300])
def test_eigenvalues_run_no_rk4_pass(monkeypatch, tau):
    # No step matrix is built: the eigenvalues come from the closed form alone.
    def no_rk4(*args):
        raise AssertionError("RK4 pass")

    for name in ("_trajectory", "shoot"):
        monkeypatch.setattr(spectrum, name, no_rk4)
    assert len(eigenvalues(tau, 5).lambdas) == 5


@given(
    log_tau=st.floats(math.log(1e-2), math.log(300.0)),
    k=st.integers(1, 8),
)
@example(log_tau=math.log(300.0), k=1)
def test_successive_degrees_lie_more_than_one_apart(log_tau, k):
    # eigenvalues marches nu in steps of at most 3 and reads the count mod 4,
    # which is safe while nu_k+1 - nu_k > 1 (1.0000016 measured at tau =
    # 300). The lambdas are checked against mpmath and RK4 in other tests.
    lams = np.array(eigenvalues(math.exp(log_tau), k + 1).lambdas)
    nu = (np.sqrt(1.0 + 8.0 * lams) - 1.0) / 2.0
    assert nu[k] - nu[k - 1] > 1.0


@pytest.mark.parametrize("tau", [0.01, 0.05, 0.2, 1.2, 5.0, 30.0, 100.0, 300.0])
def test_no_eigenvalue_is_skipped(tau):
    # RK4's node count, an independent scalar loop, must jump from k-1 to k
    # across each lambda_k within RK4's own error, measured below 4*mu^2
    # relative for mu = lambda*dt^2: then lambda_k is the k-th eigenvalue.
    # n keeps mu_8 <= 0.05, so the error is far below the gaps.
    lams = eigenvalues(tau, 8).lambdas
    n = 2048
    while lams[-1] * (2.0 * tau / n) ** 2 > 0.05:
        n *= 2
    for k, lam in enumerate(lams, start=1):
        mu = lam * (2.0 * tau / n) ** 2
        delta = 5.0 * mu * mu + 1e-12
        assert rk4_sweep(tau, lam * (1.0 - delta), n)[1] == k - 1, (tau, k)
        assert rk4_sweep(tau, lam * (1.0 + delta), n)[1] == k, (tau, k)


@given(
    tau=st.floats(math.log(5e-324), math.log(1e308)).map(math.exp),
    k=st.integers(1, 10),
)
@example(tau=5e-324, k=1)
@example(tau=1e-150, k=10)
@example(tau=0.02, k=10)
@example(tau=1e307, k=5)
@example(tau=1.1e307, k=1)
@example(tau=1e308, k=1)
def test_eigenvalues_raise_only_domain_errors(tau, k):
    # From a subnormal tau to 1e308: a value or DomainError, no warning.
    try:
        spec = eigenvalues(tau, k)
    except DomainError:
        return
    assert len(spec.lambdas) == k
    assert all(0.0 < lam < math.inf for lam in spec.lambdas)


def test_lambdas_are_a_tuple_of_positive_increasing_floats():
    spec = eigenvalues(1.2, 3)
    assert type(spec.lambdas) is tuple and all(type(lam) is float for lam in spec.lambdas)
    assert spectrum.StringSpectrum(1.2, np.array([1.0, 2.0])).lambdas == (1.0, 2.0)
    for bad in ([0.0, 1.0], [-1.0], [math.nan], [1.0, 1.0], [2.0, 1.0]):
        with pytest.raises(DomainError):
            spectrum.StringSpectrum(1.2, bad)


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
    lam1 = eigenvalues(TAU_STAR, 1).lambdas[0]
    np.testing.assert_allclose(lam1, 1.0, rtol=0.0, atol=1e-4)
    # The ground eigenfunction is the balance function mu up to scale: mu
    # vanishes at +-tau_star, and its Rayleigh quotient attains lambda_1
    # (measured 1.5e-13 off, Simpson's error on 2049 nodes).
    assert abs(exact_rayleigh_quotient(mu, mu_prime, TAU_STAR) - lam1) <= 1e-12


def test_first_five_critical_eigenvalues_frozen():
    spec = eigenvalues(TAU_STAR, 5)
    np.testing.assert_allclose(
        spec.lambdas,
        [1.0, 4.78414876, 11.12631296, 20.01390269, 31.44387096],
        rtol=1e-6,
        atol=0.0,
    )


@pytest.mark.parametrize("tau", [0.2, TAU_STAR, 1.2, 5.0])
def test_eigenvalues_match_discrete_roots_within_rk4_error(tau):
    # The roots of the discrete RK4 end value at n = 2048, bisected to
    # adjacent floats by an independent scalar loop, carry RK4's O(dt^4)
    # error: at most 1.9e-9 relative here (k = 5, tau = 5).
    want = [discrete_eigenvalue(tau, k) for k in range(1, 6)]
    np.testing.assert_allclose(eigenvalues(tau, 5).lambdas, want, rtol=3e-9, atol=0.0)


def test_eigenvalue_window_by_interval_width():
    np.testing.assert_allclose(
        eigenvalues(0.3, 1).lambdas[0], 13.867573470135811, rtol=1e-6
    )
    np.testing.assert_allclose(
        eigenvalues(2.0, 1).lambdas[0], 0.4315727457719324, rtol=1e-6
    )
    assert eigenvalues(0.3, 1).lambdas[0] > 10.0
    assert eigenvalues(2.0, 1).lambdas[0] < 1.0


def test_ground_eigenvalue_decreases_with_interval_width():
    taus = np.arange(0.4, 3.01, 0.2)
    lams = [eigenvalues(float(t), 1).lambdas[0] for t in taus]
    assert np.all(np.diff(lams) < 0.0)


def test_eigenvalues_match_dense_solver():
    for tau in (0.5, TAU_STAR, 2.0):
        lams = eigenvalues(tau, 5).lambdas
        dense = dense_eigenvalues(tau, 5)
        np.testing.assert_allclose(lams, dense, rtol=1e-4, atol=0.0)


def test_shooting_refines_at_fourth_order():
    # lambda_1 = 1 exactly at tau_star, so RK4's end value there is its error.
    cc = critical_constants()
    errs = [abs(shoot(cc.tau_star, 1.0, n)[0]) for n in (512, 1024, 2048)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0
    assert 12.0 <= errs[1] / errs[2] <= 20.0


def test_rayleigh_quotient_properties():
    # on the ground state mu at tau_star, the sampled quotient misses
    # lambda_1 by its O(dx^2) derivative error (measured 8.1e-7 relative)
    psi_mu = TestFunction.sample(mu, TAU_STAR, 2049)
    np.testing.assert_allclose(
        rayleigh_quotient(psi_mu), eigenvalues(TAU_STAR, 1).lambdas[0], rtol=1e-6, atol=0.0
    )
    lam1 = eigenvalues(1.0, 1).lambdas[0]
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
    # psi solves the Jacobi equation psi'' + (2/cosh^2 s) psi = kappa^2 psi,
    # so with unit weighted norm integral psi'^2 = 1 - kappa^2 * integral
    # psi^2: the string Rayleigh quotient lies below 1 by kappa^2 times the
    # plain norm, and above lambda_1 = 0.43157, which psi_1 alone attains.
    kappa = soliton_ground_state(2.0, psi.grid)[0]
    plain = composite_simpson(psi.values**2, psi.spacing)
    dx2 = psi.spacing**2
    np.testing.assert_allclose(rayleigh_quotient(psi), 1.0 - kappa**2 * plain, rtol=0.0, atol=dx2)
    np.testing.assert_allclose(q_form(psi), -(kappa**2) * plain, rtol=0.0, atol=dx2)
    assert eigenvalues(2.0, 1).lambdas[0] < rayleigh_quotient(psi) < 1.0


@pytest.mark.parametrize("tau", [1.3, 2.0, 5.0, 10.0])
def test_negative_direction_energy_matches_finite_differences(tau):
    # the form per plain norm is the ground energy -kappa^2 up to the O(dx^2)
    # error of the sampled derivative (measured at most 0.71*dx^2); the
    # oracle's own error on 4 000 intervals is about 0.05*dx^2
    psi = negative_direction(tau)
    ratio = q_form(psi) / composite_simpson(psi.values**2, psi.spacing)
    assert abs(ratio - jacobi_ground_energy(tau)) <= psi.spacing**2


@pytest.mark.parametrize("tau", [TAU_STAR + 1e-3, 1.21, 1.3, 2.0, 5.0, 10.0, 18.5, 19.0, 20.0, 30.0])
def test_negative_direction_samples_match_mpmath(tau):
    # kappa rounds to 1 from tau ~ 19 on, where 1 - kappa and the products
    # with exp(kappa*|s|) come from the root condition and from logs;
    # measured at most 4e-16
    psi = negative_direction(tau)
    want = soliton_ground_state(tau, psi.grid)[1]
    assert np.max(np.abs(psi.values - want)) <= 1e-12


@settings(max_examples=60)
@given(log_tau=st.floats(math.log(1e-3), math.log(300.0)))
@example(log_tau=math.log(TAU_STAR + 2e-9))
@example(log_tau=math.log(TAU_STAR - 2e-9))
@example(log_tau=math.log(300.0))
def test_negative_direction_exists_exactly_below_unit_eigenvalue(log_tau):
    # Jacobi's index duality: the form has a negative direction on
    # [-tau, tau] exactly where the string's lambda_1 falls below 1
    tau = math.exp(log_tau)
    assume(abs(tau - TAU_STAR) > 1e-9)
    below = eigenvalues(tau, 1).lambdas[0] < 1.0
    try:
        psi = negative_direction(tau)
    except DomainError:
        assert not below
    else:
        assert below and q_form(psi) < 0.0


def test_negative_direction_solves_no_string_eigenproblem(monkeypatch):
    def refuse(*args):
        raise AssertionError("string eigenproblem solved")

    for name in ("eigenvalues", "_trajectory", "shoot"):
        monkeypatch.setattr(spectrum, name, refuse)
    assert q_form(negative_direction(2.0)) < 0.0


def test_negative_direction_requires_supercritical_tau():
    with pytest.raises(DomainError):
        negative_direction(0.5)
    with pytest.raises(DomainError):
        negative_direction(TAU_STAR)


def test_eigenvalues_deterministic():
    a = eigenvalues(1.7, 3)
    b = eigenvalues(1.7, 3)
    assert np.array_equal(a.lambdas, b.lambdas)


@pytest.mark.parametrize("tau", [10.0, 20.0, 50.0, 100.0])
def test_dense_solver_at_large_tau(tau):
    # The bisection tolerance is absolute: eps*||A|| would grow like cosh^2(tau).
    dense = dense_eigenvalues(tau, 3)
    assert np.all(dense > 0.0) and np.all(np.diff(dense) > 0.0)
    np.testing.assert_allclose(dense, eigenvalues(tau, 3).lambdas, rtol=1e-3, atol=0.0)


@pytest.mark.parametrize("tau", [1e-74, 1e-100, 1e-150])
def test_dense_solver_at_tiny_tau(tau):
    # lambda_k ~ (k*pi/2/tau)^2/2 here, so an absolute 1e-13 in lambda is far
    # below the rounding of a matrix scaled by 1/ds^2: stebz does not
    # converge on it below tau ~1e-74. The 4096-interval discretization is
    # 2e-7 off.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dense = dense_eigenvalues(tau, 2)
    np.testing.assert_allclose(dense, eigenvalues(tau, 2).lambdas, rtol=1e-6, atol=0.0)


def test_dense_solver_rejects_bad_input():
    with pytest.raises(DomainError):
        dense_eigenvalues(-1.0, 3)
    with pytest.raises(DomainError):  # where the tridiagonal bisection fails
        dense_eigenvalues(250.0, 3)
    with pytest.raises(DomainError):
        eigenvalues(1.0, 0)


def test_spectrum_where_cosh_overflows():
    # Beyond |s| ~ 355 the density underflows to 0: the closed form and
    # shooting go on quietly, while the dense oracle's 1/rho scaling cannot
    # be formed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigenvalues(800.0, 5)
        shoot(800.0, 1.0)
    assert 0.0 < spec.lambdas[0] < 1e-3
    # lambda_k -> (k-1)k/2 as tau grows: nu_k -> k-1
    np.testing.assert_allclose(spec.lambdas[1:], [1.0, 3.0, 6.0, 10.0], rtol=3e-3)
    with pytest.raises(DomainError):
        dense_eigenvalues(800.0, 1)
