import itertools
import math
import random
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from soapfilm import spectrum
from soapfilm.errors import ConvergenceFailureError, DomainError
from soapfilm.extremals import critical_constants
from soapfilm.grids import TestFunction, composite_simpson
from soapfilm.spectrum import (
    dense_eigenvalues,
    eigenvalues,
    negative_direction,
    shoot,
)
from soapfilm.variation import mu, mu_prime, q_form

from oracles import (
    TAU_STAR,
    centre_series_eigenvalue,
    characteristic_angle,
    discrete_eigenvalue,
    exact_rayleigh_quotient,
    finite_difference_count,
    integer_degree_angle,
    large_tau_ground_eigenvalue,
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
    # Below lam = 0 the solution grows like exp(sqrt(-2 lam) s) and must not
    # be read as having nodes. At tau = 300 and 1e4 the density underflows
    # over most of the grid, and psi grows linearly there.
    for lam in (-100.0, -1.0, 0.0, 1.0, 30.0, 700.0, 3000.0):
        end_ref, nodes_ref, trajectory = rk4_sweep(tau, lam, n)
        end, nodes = shoot(tau, lam, n)
        assert nodes == nodes_ref
        scale = max(1.0, max(abs(x) for x in trajectory))
        assert abs(end - end_ref) <= 1e-12 * scale


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


# (tau, nu) on the three paths: the series about s = 0 below tanh(tau) = 0.732,
# where psi_e(0) = psi_o'(0) = 1; the Ferrers series above; and, on the
# Ferrers scale, the degree recurrence past a loss of exp(12), nu*tanh(tau) > 12
# at tau = 0.3. At the integer degrees _legendre's P_n and Q_n are exact too.
CHARACTERISTIC_POINTS = [
    (0.3, 2.5),
    (TAU_STAR, 1.3),
    (2.0, 4.7),
    (30.0, 0.1),
    (0.3, 4.0),
    (2.0, 3.0),
    (0.3, 45.0),
]


def _on_ferrers_scale(tau, nu):
    x = math.tanh(tau)
    return x >= math.sqrt(3.0) - 1.0 or nu * x > 12.0


@pytest.mark.parametrize("tau, nu", CHARACTERISTIC_POINTS)
def test_characteristic_functions_match_mpmath(tau, nu):
    # The pair's angle is (t + 1)*pi/2 + a, with t = nu on the Ferrers scale
    # and 0 on the x^2 form's. Both scales are positive multiples of psi_e
    # and psi_o, so the angle lies in the quadrant of mpmath's signs.
    t, a = spectrum._characteristic(tau)(nu)
    assert t == (nu if _on_ferrers_scale(tau, nu) else 0.0)
    angle = (t + 1.0) * (0.5 * math.pi) + a
    even, odd = legendre_characteristic(tau, nu)
    assert (math.cos(angle) > 0.0, math.sin(angle) > 0.0) == (even > 0, odd > 0)


@pytest.mark.parametrize("tau, nu", CHARACTERISTIC_POINTS)
def test_characteristic_angle_matches_mpmath(tau, nu):
    # The eigenvalue solve reads a, the pair's angle less (t + 1)*pi/2.
    _, a = spectrum._characteristic(tau)(nu)
    ferrers = _on_ferrers_scale(tau, nu)
    wants = [float(characteristic_angle(tau, nu, ferrers))]
    if nu == int(nu):
        wants.append(integer_degree_angle(tau, int(nu), ferrers))
    for want in wants:
        assert abs(math.remainder(a - want, 2.0 * math.pi)) <= 1e-14


def _evaluated(tau, k_max):
    """eigenvalues(tau, k_max)'s degrees and the nu of every characteristic evaluation."""
    calls = []
    original = spectrum._characteristic

    def recording(tau):
        psi = original(tau)

        def recorded(nu):
            calls.append(nu)
            return psi(nu)

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_characteristic", recording)
        lams = eigenvalues(tau, k_max).lambdas
    return [(math.sqrt(1.0 + 8.0 * lam) - 1.0) / 2.0 for lam in lams], calls


def _brackets(nu, calls):
    """Each root solve's bracket (lo, hi), from its degrees and evaluations.

    The floor, root 1's lower end, is evaluated first; each later root's
    lower end is the root before it. Each upper end is the first evaluation
    above every earlier one: a root's iterates lie below its upper end, and
    the upper ends rise with k.
    """
    ends = sorted(set(itertools.accumulate(calls, max)))
    assert len(ends) == len(nu) + 1
    return list(zip([ends[0]] + nu[:-1], ends[1:]))


def _residual(psi, k, nu):
    """Root k's residual at nu: the pair's angle less k*pi/2, wrapped into [-pi, pi]."""
    t, a = psi(nu)
    return math.remainder(math.remainder(t - k + 1.0, 4.0) * (0.5 * math.pi) + a, 2.0 * math.pi)


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
    # At root k - 1, root k's lower end, it is -pi/2 (measured within 1e-11,
    # the x^2 series' rounding where nu*tanh(tau) nears 12), the value the
    # solve takes there without evaluating it.
    tau = math.exp(log_tau)
    psi = spectrum._characteristic(tau)
    ends = _brackets(*_evaluated(tau, k))
    assert len(ends) == k
    for j, (lo, hi) in enumerate(ends, start=1):
        at_lo = _residual(psi, j, lo)
        assert at_lo < 0.0 <= _residual(psi, j, hi)
        if j > 1:
            assert abs(at_lo + 0.5 * math.pi) <= 1e-10, (j, at_lo)


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


@pytest.mark.parametrize("tau", [40.0, 1e3, 1e6, 1e12, 1e100, 1e300])
def test_lambda_1_keeps_its_relative_accuracy_at_large_tau(tau):
    # nu_1 ~ 1/tau there: the phase residual must not round nu - 1 (measured
    # at most 2.2e-16; forming (nu - 1)*pi/2 beside atan2 gave 2.5e-10 at 1e6)
    lam = eigenvalues(tau, 1).lambdas[0]
    assert abs(lam / large_tau_ground_eigenvalue(tau) - 1.0) <= 1e-14


@pytest.mark.parametrize("k", [3, 4])
def test_the_centre_series_oracle_is_the_legendre_one(k):
    # the two mpmath roots share no series: hyp2f1 in x^2 against legenp/legenq
    lam = eigenvalues(0.05, k).lambdas[k - 1]
    series, legendre = centre_series_eigenvalue(0.05, k, lam), string_eigenvalue(0.05, k, lam)
    assert abs(series / legendre - 1.0) <= 1e-15


@pytest.mark.parametrize("tau", [2e-3, 1e-4, 1e-8])
def test_eigenvalues_keep_their_accuracy_where_the_series_lose_most(tau):
    # Below tau ~ k*pi/2e4 the degree recurrence gives way to the series at
    # a loss of up to exp(24): the docstring's 3e-9 for k = 8..14 and 2e-8
    # for k = 15 (measured at most 2.1e-9 and 9.9e-9 at these tau)
    lams = eigenvalues(tau, 15).lambdas
    for k in range(8, 16):
        lam = lams[k - 1]
        error = abs(lam / centre_series_eigenvalue(tau, k, lam) - 1.0)
        assert error <= (3e-9 if k < 15 else 2e-8), (k, error)


def test_eigenvalues_take_few_evaluations():
    # Each nu is evaluated once. The bounds sit 20-30 % above the worst
    # measured on these 40 tau, 6, 11 and 28 evaluations for k = 1, 2, 5;
    # on the benchmark's inputs (tau in [0.2, 5]), 4.7 per eigenvalue on
    # average. At k_max = 400 they sit 25-65 % above 941, 1 216 and 1 214,
    # so that a tol_f below the residual's rounding, which ends solves on
    # tol_x, shows in long spectra too.
    for i in range(40):
        tau = math.exp(math.log(1e-2) + math.log(3e4) * i / 39)
        for k in (1, 2, 5):
            calls = _evaluated(tau, k)[1]
            assert len(calls) <= {1: 9, 2: 15, 5: 35}[k], (tau, k, len(calls))
            assert len(set(calls)) == len(calls)
    for tau, bound in ((1.0, 1550), (4.5, 1600), (10.0, 1650)):
        calls = _evaluated(tau, 400)[1]
        assert len(calls) <= bound, (tau, len(calls))
        assert len(set(calls)) == len(calls)


# (tau, k) where the root solves are hardest: on the x^2 form near
# nu*tanh(tau) = 12, where its rounding is largest (the two worst of 505
# draws from random.Random(23), 1.76e-13 and 2.68e-13, and an input where
# an unevaluated last secant point there missed by 4.9e-13); on the Ferrers
# scale at tau just above the switch from the x^2 form, where the
# residual's rounding reached 122*tol_f at unevaluated points; and at small
# tau, where the x^2 series' rounding near lambda_5 reaches ~200 ulps of
# pi/2.
_HARD_SPECTRA = [
    (0.4379024390918692, 8),
    (0.43097293988388385, 8),
    (0.3122301844673262, 7),
    (0.9448023144693112, 8),
    (0.9448023144693112, 9),
    (0.9630499013977649, 8),
    (0.9630499013977649, 9),
    (1.0, 8),
    (1.0, 9),
    (0.05, 5),
    (0.2, 5),
]


@pytest.mark.parametrize("tau, k", _HARD_SPECTRA)
def test_eigenvalues_meet_their_accuracy_bound_where_the_solve_is_hardest(tau, k):
    # the docstring's bounds: 1e-13 relative for k <= 5, 1e-12 up to k = 20
    # (measured at most 4.0e-13 here, at tau = 0.9448, k = 9)
    lam = eigenvalues(tau, k).lambdas[k - 1]
    bound = 1e-13 if k <= 5 else 1e-12
    assert abs(lam - string_eigenvalue(tau, k, lam)) <= bound * lam


def _check_evaluation_bound(tau, k):
    # Roots 1..k-1 are solved alike for any k_max, so root k's evaluations
    # are those eigenvalues(tau, k) makes beyond eigenvalues(tau, k - 1): at
    # most two at its ends and n + 5 after them, n = ceil(log2((hi -
    # lo)/tol_x)), 58 in all where the docstring measured n. tol_x is
    # 1e-15 times at least max(lo, k - 1), which bounds n from above.
    nu, calls = _evaluated(tau, k)
    lo, hi = _brackets(nu, calls)[-1]
    count = len(calls) - (len(_evaluated(tau, k - 1)[1]) if k > 1 else 0)
    n = math.ceil(math.log2((hi - lo) / (1e-15 * max(lo, k - 1.0))))
    assert count <= min(n + 7, 58), (count, n)


@settings(max_examples=60)
@given(
    log_tau=st.floats(math.log(1e-2), math.log(300.0)),
    k=st.integers(1, 8),
)
@example(log_tau=math.log(1e-2), k=8)
@example(log_tau=math.log(300.0), k=8)
def test_each_root_keeps_its_evaluation_bound(log_tau, k):
    _check_evaluation_bound(math.exp(log_tau), k)


@pytest.mark.parametrize("tau, k", _HARD_SPECTRA)
def test_each_root_keeps_its_evaluation_bound_where_the_solve_is_hardest(tau, k):
    _check_evaluation_bound(tau, k)


def test_the_benchmark_inputs_take_no_more_evaluations_than_a_generic_solver():
    # The spectrum workload's ops on seed 1, passes 0-29: tau = 0.2*25**u,
    # u a golden-ratio walk from a seeded start for each k. Per-k totals,
    # not single calls, against the 177/315/449/587/766 evaluations (2 294)
    # that find_root_bracketed made on the same ops; measured 163/286/409/
    # 540/699 (2 097).
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    totals = []
    for k in range(1, 6):
        start = random.Random(f"1/spectrum/{k}").random()
        taus = [0.2 * 25.0 ** ((start + p * golden) % 1.0) for p in range(30)]
        totals.append(sum(len(_evaluated(tau, k)[1]) for tau in taus))
    assert all(new <= old for new, old in zip(totals, [177, 315, 449, 587, 766])), totals


def test_a_bracket_without_a_sign_change_is_a_library_bug(monkeypatch):
    # with the upper ends pulled below the Sturm bound, root 1's at tau = 2
    # lies below the root
    monkeypatch.setattr(spectrum, "_PAD", -0.5)
    with pytest.raises(ConvergenceFailureError, match="^no sign change over root 1's bracket"):
        eigenvalues(2.0, 1)


@pytest.mark.parametrize("tau", [1e-150, 0.2, TAU_STAR, 5.0, 300.0, 1e300])
def test_eigenvalues_run_no_rk4_pass(monkeypatch, tau):
    # No step matrix is built: the eigenvalues come from the closed form alone.
    def no_rk4(*args):
        raise AssertionError("RK4 pass")

    monkeypatch.setattr(spectrum, "shoot", no_rk4)
    assert len(eigenvalues(tau, 5).lambdas) == 5


@given(
    log_tau=st.floats(math.log(1e-2), math.log(300.0)),
    k=st.integers(1, 8),
)
@example(log_tau=math.log(300.0), k=1)
def test_successive_degrees_lie_more_than_one_apart(log_tau, k):
    # A property of the spectrum (1.0000016 measured at tau = 300) that the
    # root brackets no longer rely on: they come from a Sturm bound and are
    # checked below. The lambdas are checked against mpmath and RK4 in other
    # tests.
    lams = np.array(eigenvalues(math.exp(log_tau), k + 1).lambdas)
    nu = (np.sqrt(1.0 + 8.0 * lams) - 1.0) / 2.0
    assert nu[k] - nu[k - 1] > 1.0


@pytest.mark.parametrize("tau", [0.05, 0.5, 2.0, 20.0, 300.0])
def test_sturm_bounds_lie_above_the_mpmath_roots(tau):
    # In the Liouville normal form the potential is at most -1/4, so
    # nu_k < k*pi/(2*gd(tau)) - 1/2: each upper bracket end less its pad.
    # Above tau = 1 the tent 1 - |s|/tau bounds lambda_1 too.
    c = math.pi / (2.0 * math.atan(math.sinh(tau)))
    for k, lam in enumerate(eigenvalues(tau, 4).lambdas, start=1):
        exact = string_eigenvalue(tau, k, lam)
        assert (math.sqrt(1.0 + 8.0 * exact) - 1.0) / 2.0 < k * c - 0.5, k
        if k == 1 and tau > 1.0:
            log_cosh = tau + math.log1p(math.exp(-2.0 * tau)) - math.log(2.0)
            assert exact < 1.0 / (4.0 * log_cosh - 2.0 * tau * math.tanh(tau))


@settings(max_examples=60)
@given(
    log_tau=st.floats(math.log(1e-2), math.log(300.0)),
    k=st.integers(1, 8),
)
@example(log_tau=math.log(1e-2), k=8)
@example(log_tau=math.log(300.0), k=8)
def test_each_upper_end_lies_below_the_root_after_next(log_tau, k):
    # The residual's wrap into [-pi, pi] reads the angle right only while N
    # is at most k + 1: root k's upper end must lie below nu_k+2.
    nu, calls = _evaluated(math.exp(log_tau), k + 2)
    for j, (lo, hi) in enumerate(_brackets(nu, calls)[:k]):
        assert lo < nu[j] < hi < nu[j + 2], (j + 1, lo, hi, nu)


@pytest.mark.parametrize("tau", [4.5, 5.0, 6.0])
def test_upper_ends_hold_where_no_proof_covers_them(tau):
    # eigenvalues' two proofs of nu_k+2 > upper end leave 105 <= k <= 122 at
    # tau = 4.5, 174 <= k <= 337 at 5 and 474 <= k <= 2527 at 6. RK4's node
    # count, an independent scalar loop, then jumps from 499 to 500 across
    # lambda_500 (mu = lambda*dt^2 <= 0.017, an RK4 error below 5*mu^2 =
    # 1.5e-3 relative, against gaps of 4e-3), so no root before it was
    # skipped.
    nu, calls = _evaluated(tau, 500)
    assert all(hi < nu[j + 2] for j, (_, hi) in enumerate(_brackets(nu, calls)[:-2]))
    lam, n = 0.5 * nu[-1] * (nu[-1] + 1.0), 2**15
    delta = 5.0 * (lam * (2.0 * tau / n) ** 2) ** 2
    assert rk4_sweep(tau, lam * (1.0 - delta), n)[1] == 499
    assert rk4_sweep(tau, lam * (1.0 + delta), n)[1] == 500


def test_the_series_precision_limit_is_a_domain_error():
    # Root 16's upper bracket end (16 + 1e-3)*pi/(2*gd(tau)) - 1/2 passes
    # degree 1e4, the recurrence's last, below tau = 2.51331e-3; there the
    # series about s = 0 would lose exp(25) ulps. Root 15's would lose at
    # most exp(23.6), so k_max = 15 is solved at every tau.
    assert len(eigenvalues(2.5134e-3, 16).lambdas) == 16
    with pytest.raises(DomainError, match="beyond the series' precision"):
        eigenvalues(2.5132e-3, 16)
    assert eigenvalues(1e-150, 15).lambdas[-1] < math.inf


def test_eigenvalues_past_the_largest_float_are_a_domain_error():
    # lambda_2 = (pi^2/gd(tau)^2 - 1/2 - O(tau^2))/2 overflows below
    # tau = pi/sqrt(2*DBL_MAX), where lambda_1, and with it the check on
    # the lower bound, is still finite: the last check before the return.
    edge = math.pi / math.sqrt(2.0) / math.sqrt(sys.float_info.max)
    assert eigenvalues(edge * (1.0 + 1e-9), 2).lambdas[1] < math.inf
    below = edge * (1.0 - 1e-9)
    assert eigenvalues(below, 1).lambdas[0] < math.inf
    with pytest.raises(DomainError, match="leave the float range"):
        eigenvalues(below, 2)


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
    k=st.integers(1, 20),
)
@example(tau=5e-324, k=1)
@example(tau=1e-150, k=10)
@example(tau=0.02, k=10)
@example(tau=1e307, k=5)
@example(tau=1.1e307, k=1)
@example(tau=1e308, k=1)
@example(tau=2e-3, k=16)
@example(tau=1e-153, k=50)
def test_eigenvalues_raise_only_domain_errors(tau, k):
    # From a subnormal tau to 1e308: a value or DomainError, no warning, and
    # the error is eigenvalues' own, never a root solve's.
    try:
        spec = eigenvalues(tau, k)
    except DomainError as exc:
        assert re.search("leave the float range|beyond the series' precision", str(exc))
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

    for name in ("eigenvalues", "shoot"):
        monkeypatch.setattr(spectrum, name, refuse)
    assert q_form(negative_direction(2.0)) < 0.0


def test_a_direction_that_is_not_negative_is_a_library_bug(monkeypatch):
    # the closed-form ground state is certified by q_form, not assumed
    monkeypatch.setattr("soapfilm.variation.q_form", lambda psi: 0.0)
    with pytest.raises(ConvergenceFailureError, match="^ground direction at tau=2.0 failed"):
        negative_direction(2.0)


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
    # The 4096-interval discretization is at most 5.7e-4 off here (k = 3,
    # tau = 100).
    dense = dense_eigenvalues(tau, 3)
    assert type(dense) is tuple and all(type(lam) is float for lam in dense)
    assert 0.0 < dense[0] < dense[1] < dense[2]
    np.testing.assert_allclose(dense, eigenvalues(tau, 3).lambdas, rtol=1e-3, atol=0.0)


@pytest.mark.parametrize("tau", [1e-74, 1e-100, 1e-150])
def test_dense_solver_at_tiny_tau(tau):
    # lambda_k ~ (k*pi/2/tau)^2/2 here, near the top of the float range at
    # 1e-150. The 4096-interval discretization is 2e-7 off at k = 2. The
    # density rounds to 2 at every node, so the matrix's eigenvalues are
    # 2*sin(k*pi/8192)^2/ds^2 exactly: within the kernel's 1e-13 of mu
    # (measured 2.6e-14).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dense = dense_eigenvalues(tau, 5)
    np.testing.assert_allclose(dense[:2], eigenvalues(tau, 2).lambdas, rtol=1e-6, atol=0.0)
    ds = 2.0 * tau / 4096
    for k, lam in enumerate(dense, start=1):
        exact = 2.0 * math.sin(k * math.pi / 8192) ** 2 / ds / ds
        assert abs(lam / exact - 1.0) <= 1e-13, k


# dense_eigenvalues as LAPACK's tridiagonal bisection (stebz, through scipy)
# returned it, on the same 4096-interval matrix, before the Sturm-count
# kernel replaced it: 1.1996786402577337 is tau_star. That bisection was
# itself off by up to 1.2e-10 (8.2e-10 at 1e-100, against the closed form
# above), where the kernel is within 2.5e-14 of 40-digit solves.
_LAPACK_DENSE = {
    1e-100: (1.2337004906730727e200, 4.9348012336995461e200),
    0.2: (31.003097567008783, 124.763563106535, 281.03206556406792, 499.8079918615984,
          781.09114689868875),
    0.5: (5.0921468446031053, 21.125744202174232, 47.855254848487675, 85.277610653080018,
          133.39233595225954),
    1.1996786402577337: (0.99999994956022997, 4.784147771954272, 11.126307685492817,
                         20.01388574185, 31.443829250785047),
    1.2: (0.99953305244624147, 4.7822948035900374, 11.122161031461401, 20.006533565821108,
          31.432358078018293),
    4.6: (0.13696643644250486, 1.4465649837706647, 3.8187044134274717, 7.2407743096151655,
          11.706757188170814),
    20.0: (0.026302758466303762, 1.0802821679850159, 3.1363474777195544),
    100.0: (0.0050504066620694378, 1.0150373953211842, 3.0236976346519442),
}


@pytest.mark.parametrize("tau", sorted(_LAPACK_DENSE))
def test_dense_eigenvalues_meet_the_lapack_values(tau):
    want = _LAPACK_DENSE[tau]
    got = dense_eigenvalues(tau, len(want))
    assert len(got) == len(want)
    for k, (lam, ref) in enumerate(zip(got, want), start=1):
        assert abs(lam / ref - 1.0) <= 1e-9, k


@given(log_tau=st.floats(math.log(1e-3), math.log(300.0)))
@settings(max_examples=15)
@example(log_tau=math.log(1e-100))
@example(log_tau=math.log(800.0))
def test_each_dense_eigenvalue_is_where_the_sturm_count_steps(log_tau):
    # Counted over the whole grid, from the plain recurrence: k - 1
    # eigenvalues lie just below lambda_k and k just above it. The returned
    # midpoint is within half its bracket, at most 1e-13 of mu wide, of
    # where the kernel's count steps.
    tau = math.exp(log_tau)
    for k, lam in enumerate(dense_eigenvalues(tau, 5), start=1):
        margin = 1e-12 * lam
        assert finite_difference_count(tau, lam - margin) == k - 1, k
        assert finite_difference_count(tau, lam + margin) == k, k


def test_dense_solver_rejects_bad_input():
    with pytest.raises(DomainError):
        dense_eigenvalues(-1.0, 3)
    with pytest.raises(DomainError):
        eigenvalues(1.0, 0)


def test_dense_solver_where_lapack_bisection_failed():
    # stebz failed from tau ~ 200 on; the Sturm counts need no norm. The
    # 4096-interval discretization is 3.6e-3 off at k = 3 (ds = 0.12).
    np.testing.assert_allclose(
        dense_eigenvalues(250.0, 3), eigenvalues(250.0, 3).lambdas, rtol=5e-3, atol=0.0
    )


@pytest.mark.parametrize(
    "tau, k_max", [(1e5, 20), (1e6, 2), (8.9e307, 1)], ids=["15-finite", "1-finite", "underflow"]
)
def test_dense_solver_beyond_its_finite_eigenvalues(tau, k_max):
    # rho underflows to 0 beyond |s| ~ 372, and each such node takes a
    # finite eigenvalue away; at 8.9e307 lambda_1 ~ 2048/tau^2 underflows
    with pytest.raises(DomainError):
        dense_eigenvalues(tau, k_max)


@pytest.mark.parametrize("tau", [1e6, 1e10, 1e150])
def test_dense_solver_where_only_the_centre_carries_rho(tau):
    # rho is 0 at every node but s = 0, so psi is a tent and mu_1 = 1/2048:
    # lambda_1 = 2048/tau^2, far below an absolute 1e-13 from tau ~ 1e8 on
    (lam,) = dense_eigenvalues(tau, 1)
    assert abs(lam / (2048.0 / tau / tau) - 1.0) <= 1e-13


def test_spectrum_where_cosh_overflows():
    # Beyond |s| ~ 355 the density is subnormal, then 0: the closed form,
    # shooting and the dense oracle, which forms no 1/rho, go on quietly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigenvalues(800.0, 5)
        shoot(800.0, 1.0)
        dense = dense_eigenvalues(800.0, 1)
    assert 0.0 < spec.lambdas[0] < 1e-3
    # lambda_k -> (k-1)k/2 as tau grows: nu_k -> k-1
    np.testing.assert_allclose(spec.lambdas[1:], [1.0, 3.0, 6.0, 10.0], rtol=3e-3)
    # the 4096-interval discretization (ds = 0.39) is 1.1e-5 off lambda_1
    np.testing.assert_allclose(dense, spec.lambdas[:1], rtol=2e-5, atol=0.0)
