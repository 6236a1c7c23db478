"""The error contract: DomainError means bad input, and nothing else escapes.

Every scalar-path function and the Extremal constructor, every spectrum and
variation function, the grid plumbing (check_uniform_grid, composite_simpson,
sampled_derivative, TestFunction, area_quadrature), Profile, discrete_area,
discrete_gradient and minimize (from each starting profile), over the edges
of the float domain, returns a value its docstring allows or raises DomainError
(or NoExtremalError, the problem's own outcome above h*). An allowed value is
finite, or the inf/NaN the docstring names. A numpy warning fails the test
too (the suite turns warnings into errors). The source scan pins the other
half: every raise in the library names one of the four types of
soapfilm.errors. Every count argument that is not an integer in its range
is a DomainError too, raised before numpy sees it. Two more scans check
that no module imports dataclasses or scipy.
"""

import ast
import math
import pathlib

import numpy as np
import pytest

import soapfilm
from soapfilm import errors
from soapfilm import variation
from soapfilm.direct_min import (
    InitPreset,
    Outcome,
    Profile,
    discrete_area,
    discrete_gradient,
    minimize,
)
from soapfilm.energetics import area_quadrature, force
from soapfilm.errors import DomainError, NoExtremalError
from soapfilm.extremals import (
    Branch,
    Extremal,
    area_closed_form,
    critical_extremal,
    phi,
    profile,
    small_h_asymptotics,
    solve_branches,
)
from soapfilm.grids import TestFunction, check_uniform_grid, composite_simpson, sampled_derivative
from soapfilm.rootfind import find_root_bracketed
from soapfilm.spectrum import dense_eigenvalues, eigenvalues, negative_direction, shoot
from soapfilm.variation import mu, mu_prime

# 1e-150 is a string half-interval whose eigenvalues (lambda ~ 1/tau^2) come
# near the top of the float range, and 1e4 and 1e6 are ones where a shot at
# the default n takes steps far wider than the density; at 1e-200 the bound
# pi^2/(8 tau^2) <= lambda_1 itself overflows, while the step 2*tau/n is
# still a normal float; 8.9e307 is a half-distance whose 2h is still finite.
EDGES = [
    math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-306, 1e308, 8.9e307, 1e-150, 1e-200,
    1e4, 1e6,
]


def _branches(h):
    out = []
    for e in solve_branches(h):
        out += [e.tau, e.c, area_closed_form(e), profile(e, 0.0), profile(e, e.h), profile(e, -e.h)]
    return out


def _force(h):
    sample = force(h)
    return [sample.force, sample.dforce_dh]


def _root(lo, hi):
    return [find_root_bracketed(lambda t: t - 0.5, lo, hi, tol_x=1e-12, tol_f=1e-12)]


def _minimize(init):
    def call(h):
        report = minimize(h, 64, init)
        return [report.final_area, report.min_y]
    return call


def _with(x, base=(0.0, 0.5, 1.0, 0.5, 0.2, 0.0)):
    """A sample row, 0.0 at both ends, with x where Simpson weighs it by 4."""
    values = np.array(base)
    values[1] = x
    return values


# radii whose sampled slope is about 1/spacing: y'^2 overflows below a grid
# spacing of about 1e-154, while the area stays finite
_ZIGZAG = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)


def _test_function(x):
    values = np.zeros(17)
    values[8] = x
    psi = TestFunction(np.linspace(-1.0, 1.0, 17), values)
    return list(psi.values) + [psi.spacing, psi.halfwidth]


def _sampled(halfwidth):
    psi = TestFunction.sample(np.cos, halfwidth, 17)
    return list(psi.values) + [psi.spacing, psi.halfwidth]


def _profile(h):
    # the harness's own grid arithmetic may overflow; Profile must reject it
    with np.errstate(all="ignore"):
        grid = h * np.linspace(-1.0, 1.0, 64)
    p = Profile(h=h, grid=grid, y=np.ones(64))
    return [p.spacing, p.h]


def _profile_radius(x):
    y = np.ones(64)
    y[5] = x
    return list(Profile(h=1.0, grid=np.linspace(-1.0, 1.0, 64), y=y).y)


def _discrete(call, h=None, x=1.0):
    """call on the profile over h*[-1, 1] (or [-0.3, 0.3]) with x at one interior node."""
    with np.errstate(all="ignore"):
        grid = np.linspace(-0.3, 0.3, 9) if h is None else h * np.linspace(-1.0, 1.0, 9)
    y = np.ones(9)
    y[3] = x
    return list(np.ravel(call(Profile(h=0.3 if h is None else h, grid=grid, y=y))))


def _uniform(grid):
    with np.errstate(all="ignore"):
        grid = grid()
    return [check_uniform_grid(grid)]


def _with_node(x):
    grid = np.linspace(-1.0, 1.0, 9)
    grid[4] = x
    return grid


def _extremal(branch, field):
    """The catenoid of that branch at h = 0.4 with x in one field, or as its waist c.

    c is no field: x as the waist builds the record with tau = h/x.
    """
    def call(x):
        e = solve_branches(0.4)[branch is Branch.UPPER]
        fields = {"h": e.h, "tau": e.tau}
        if field == "c":
            with np.errstate(all="ignore"):
                fields["tau"] = float(np.divide(e.h, x))
        else:
            fields[field] = x
        e = Extremal(branch=branch, **fields)
        return [e.h, e.tau, e.c]
    return call


def _direction(e, n=17):
    """psi = cos(pi s/(2 tau)), one arch over the extremal's [-tau, tau]."""
    return TestFunction.sample(lambda s: np.cos(0.5 * math.pi * s / e.tau), e.tau, n)


def _on_branches(call):
    def walk(h):
        return [v for e in solve_branches(h) for v in np.ravel(call(e))]
    return walk


def _report(report):
    return [report.q_form, report.raw_d1, report.raw_d2, report.raw_d3]


_CRITICAL = critical_extremal()
# 4*mu, the Jacobi direction: its eta reaches 4, so t*eta overflows at t = 1e308
_CRITICAL_PSI = TestFunction.sample(lambda s: 4.0 * mu(s), _CRITICAL.tau, 65)


CALLS = {
    "phi": lambda x: [phi(x)],
    "solve_branches": _branches,
    "force": _force,
    "small_h_asymptotics": lambda x: list(small_h_asymptotics(x)),
    "mu": lambda x: [mu(x)],
    "mu_prime": lambda x: [mu_prime(x)],
    "find_root_bracketed(lo)": lambda x: _root(x, 1.0),
    "find_root_bracketed(hi)": lambda x: _root(-1.0, x),
    "shoot(tau)": lambda x: list(shoot(x, 1.0)),
    "shoot(lam)": lambda x: list(shoot(1.0, x)),
    "eigenvalues": lambda x: list(eigenvalues(x, 2).lambdas),
    "dense_eigenvalues": lambda x: list(dense_eigenvalues(x, 2)),
    "composite_simpson(values)": lambda x: [composite_simpson(_with(x), 0.1)],
    "composite_simpson(dx)": lambda x: [composite_simpson(_with(1.0), x)],
    "sampled_derivative(values)": lambda x: list(sampled_derivative(_with(x), 0.1)),
    "sampled_derivative(dx)": lambda x: list(sampled_derivative(_with(1.0), x)),
    "area_quadrature(y)": lambda x: [area_quadrature(np.linspace(0.0, 1.0, 6), 1.0 + _with(x))],
    "area_quadrature(grid)": lambda x: [
        area_quadrature(x * np.linspace(-1.0, 1.0, 6), 1.0 + _with(1.0))
    ],
    "area_quadrature(steep grid)": lambda x: [
        area_quadrature(x * np.linspace(-1.0, 1.0, 6), 1.0 + np.array(_ZIGZAG))
    ],
    "TestFunction(values)": _test_function,
    "TestFunction.sample(halfwidth)": _sampled,
    "negative_direction": lambda x: list(negative_direction(x).values),
    "q_form": lambda x: [variation.q_form(TestFunction.sample(np.cos, x, 17))],
    "q_form_factored": lambda x: [variation.q_form_factored(TestFunction.sample(np.cos, x, 17))],
    "eta_from_psi": _on_branches(lambda e: variation.eta_from_psi(_direction(e), e).values),
    "third_variation": _on_branches(lambda e: variation.third_variation(e, _direction(e))),
    "area_along_direction(h)": _on_branches(
        lambda e: variation.area_along_direction(e, _direction(e), 1e-3)
    ),
    "area_along_direction(t)": lambda x: [
        variation.area_along_direction(_CRITICAL, _CRITICAL_PSI, x)
    ],
    "taylor_probe(h)": _on_branches(
        lambda e: _report(variation.taylor_probe(e, _direction(e, 65), 1e-3))
    ),
    "taylor_probe(t)": lambda x: _report(variation.taylor_probe(_CRITICAL, _CRITICAL_PSI, x)),
    **{
        f"Extremal({branch.value}, {field})": _extremal(branch, field)
        for branch in Branch for field in ("h", "tau", "c")
    },
    "check_uniform_grid(span)": lambda x: _uniform(lambda: x * np.linspace(-1.0, 1.0, 9)),
    "check_uniform_grid(node)": lambda x: _uniform(lambda: _with_node(x)),
    "discrete_area(h)": lambda x: _discrete(discrete_area, h=x),
    "discrete_area(y)": lambda x: _discrete(discrete_area, x=x),
    "discrete_gradient(h)": lambda x: _discrete(discrete_gradient, h=x),
    "discrete_gradient(y)": lambda x: _discrete(discrete_gradient, x=x),
    "Profile(h)": _profile,
    "Profile(y)": _profile_radius,
    **{f"minimize({init})": _minimize(init) for init in [p.value for p in InitPreset]},
}

# (call, repr of the edge) -> the non-finite result its docstring names:
# phi is +inf where it overflows; mu and mu_prime are elementwise, NaN in
# NaN out, and mu(+-inf) = -inf.
NAMED = {
    ("phi", "inf"): math.inf,
    ("phi", "1e+308"): math.inf,
    ("phi", "8.9e+307"): math.inf,
    ("phi", "10000.0"): math.inf,
    ("phi", "1000000.0"): math.inf,
    ("phi", "5e-324"): math.inf,
    ("mu", "nan"): math.nan,
    ("mu", "inf"): -math.inf,
    ("mu", "-inf"): -math.inf,
    ("mu_prime", "nan"): math.nan,
}


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("x", EDGES, ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_edge_input_gives_allowed_value_or_domain_error(name, x):
    try:
        values = CALLS[name](x)
    except (DomainError, NoExtremalError):
        return
    named = NAMED.get((name, repr(x)))
    for value in values:
        assert math.isfinite(value) or (named is not None and _same(value, named)), (name, x, values)


def _nearby_profile(h):
    """A flat profile on [-h', h'] with h' one part in 1e9 above h."""
    wide = h * (1.0 + 1e-9)
    return Profile(h=wide, grid=np.linspace(-wide, wide, 64), y=np.ones(64))


# Interval and grid checks are relative to the scale at hand: a tolerance
# floored at 1 accepts each of these at h = 1e-20 (the Profile's area would
# read 1e7 times the film's 4*pi*h), and the profile 1e-9 away from
# minimize's h at the smallest h it takes.
MISMATCHES = {
    "check_uniform_grid": lambda: check_uniform_grid(np.array([0.0, 1e-20, 5e-20, 6e-20])),
    "TestFunction": lambda: TestFunction(np.linspace(-3e-20, 3.2e-20, 17), np.zeros(17)),
    # a grid of the right size and span but not one-dimensional
    "TestFunction(2-D)": lambda: TestFunction(
        np.linspace(-1.0, 1.0, 20).reshape(4, 5), np.zeros((4, 5))
    ),
    "profile": lambda: profile(solve_branches(1e-20)[0], 9e-13),
    "Profile": lambda: Profile(h=1e-20, grid=np.linspace(-1e-13, 1e-13, 65), y=np.ones(65)),
    "eta_from_psi": lambda: variation.eta_from_psi(
        TestFunction.sample(np.cos, 2e-20, 17), solve_branches(1e-20)[0]
    ),
    "minimize": lambda: minimize(3.2e-6, 64, _nearby_profile(3.2e-6)),
}


@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_a_mismatch_at_a_tiny_scale_is_a_domain_error(name):
    with pytest.raises(DomainError):
        MISMATCHES[name]()


def test_matching_inputs_at_a_tiny_scale_are_accepted():
    h = 1e-20
    grid = h * np.linspace(-1.0, 1.0, 65)
    assert check_uniform_grid(grid) == h / 32.0
    area = discrete_area(Profile(h=h, grid=grid, y=np.ones(65)))
    assert abs(area / (2.0 * math.tau * h) - 1.0) <= 1e-15
    for e in solve_branches(h):
        eta = variation.eta_from_psi(_direction(e), e)
        assert np.all(np.isfinite(profile(e, eta.grid)))
        assert math.isfinite(variation.third_variation(e, _direction(e)))


# The constructor holds the boundary condition to 1e-10 in its log, so it
# accepts the lower catenoid at h = 0.4 with tau one part in 1e10 off (the
# log moves by mu(tau_1) = 0.82 times that) or h one part in 1.1e10 off (a
# full 1e-10 in h lands on the bound, past it by the solve's rounding);
# every probe takes such an extremal's own psi grid.
@pytest.mark.parametrize(
    "field, factor",
    [(f, 1.0 + d) for f, size in (("tau", 1e-10), ("h", 9e-11)) for d in (size, -size)],
)
def test_the_probes_take_every_extremal_the_constructor_accepts(field, factor):
    lower = solve_branches(0.4)[0]
    fields = {"h": lower.h, "tau": lower.tau}
    fields[field] *= factor
    e = Extremal(branch=Branch.LOWER, **fields)
    psi = _direction(e, 257)
    values = [
        variation.third_variation(e, psi),
        variation.area_along_direction(e, psi, 1e-3),
        *_report(variation.taylor_probe(e, psi, 1e-3)),
    ]
    assert all(math.isfinite(v) for v in values), values


@pytest.mark.parametrize("tau", [1e-150, 1e-50, 1e-9])
def test_tiny_interval_spectrum_scales_as_one_over_tau_squared(tau):
    # lambda_k tau^2 = (k pi)^2/8 (1 + O(tau^2)): below tau ~ 1e-8 the
    # correction is below the rounding.
    reference = [lam * 1e-16 for lam in eigenvalues(1e-8, 5).lambdas]
    scaled = [lam * tau * tau for lam in eigenvalues(tau, 5).lambdas]
    assert max(abs(s / r - 1.0) for s, r in zip(scaled, reference)) <= 1e-12


def test_eigenvalues_beyond_the_float_range_are_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        eigenvalues(1e-200, 1)


# minimize's grid spacing 2h/(n-1) must be at least 1e-7. Without that
# bound the first six, at n = 64, overflow (m*m, w**3, cosh) or divide 0 by
# 0 with a numpy warning; 3.1e-6 is just below it.
@pytest.mark.parametrize(
    "h, init",
    [
        (1e-306, "upper_catenoid"),
        (1e-306, "lower_catenoid"),
        (1e-306, "upper_perturbed"),
        (1e-160, "lower_catenoid"),
        (1e-150, "upper_catenoid"),
        (5e-324, "cylinder"),
        (3.1e-6, "cylinder"),
        (3.1e-6, "lower_catenoid"),
        (3.1e-6, "upper_catenoid"),
        (3.1e-6, "upper_perturbed"),
    ],
    ids=repr,
)
def test_minimize_below_the_grid_spacing_bound_is_a_domain_error(h, init):
    with pytest.raises(DomainError):
        minimize(h, 64, init)


# upper_perturbed is not run here: its kick 1e-3*psi*cosh(s) grows like 1/c
# as h falls, reaches about 60 times the ring radius at this h, and the run
# spends its whole iteration budget.
@pytest.mark.parametrize("init", ["cylinder", "lower_catenoid", "upper_catenoid"])
def test_minimize_just_above_the_grid_spacing_bound_converges(init):
    h = 3.2e-6  # 2h/63 = 1.016e-7
    report = minimize(h, 64, init)
    assert report.outcome is Outcome.CONVERGED
    exact = area_closed_form(solve_branches(h)[0])
    assert abs(report.final_area - exact) <= 1e-12 * exact


# Each count argument, with the least value it takes: 16, 64 and 256 samples
# or steps, 1 eigenvalue; and the most, 2**20 (4095 for dense_eigenvalues). A
# float, even one above that least value or NaN, a numeric string and an
# integer out of range are each a DomainError, raised before anything is
# allocated or solved: 10**15 samples would not fit in memory.
COUNTS = {
    "shoot(n)": lambda n: shoot(1.0, 1.0, n),
    "eigenvalues(k_max)": lambda k: eigenvalues(1.0, k),
    "dense_eigenvalues(k_max)": lambda k: dense_eigenvalues(1.0, k),
    "minimize(n)": lambda n: minimize(0.4, n, "cylinder"),
    "TestFunction.sample(n)": lambda n: TestFunction.sample(np.cos, 1.0, n),
}
NOT_COUNTS = [2.5, 300.5, math.nan, "64", 0, -1, 2**20 + 1, 10**15]


@pytest.mark.parametrize("count", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_a_count_that_is_not_one_is_a_domain_error(name, count):
    with pytest.raises(DomainError):
        COUNTS[name](count)


def test_dense_k_max_beyond_the_matrix_rows_is_a_domain_error():
    # the matrix has 4095 rows; k_max = 4095 itself takes about 25 s at
    # tau = 1 (5.6 s with the former LAPACK bisection), so it is not run
    with pytest.raises(DomainError):
        dense_eigenvalues(1.0, 4096)


def test_numpy_integers_and_bools_are_counts():
    assert eigenvalues(1.0, np.int64(2)) == eigenvalues(1.0, 2)
    assert eigenvalues(1.0, True) == eigenvalues(1.0, 1)
    assert shoot(1.0, 1.0, np.int32(300)) == shoot(1.0, 1.0, 300)
    assert len(dense_eigenvalues(1.0, np.uint8(2))) == 2
    assert TestFunction.sample(np.cos, 1.0, np.int64(17)).n == 17


def test_errors_are_the_four_contract_types():
    assert errors.__all__ == [
        "SoapFilmError",
        "DomainError",
        "NoExtremalError",
        "ConvergenceFailureError",
    ]


def _source_nodes():
    """(file name, node) for every AST node of every module in the package."""
    package = pathlib.Path(soapfilm.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_every_raise_names_a_library_error():
    found = []
    for file, node in _source_nodes():
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else ast.unparse(node)
        if name not in errors.__all__:
            found.append((file, name))
    # the interpreter exit in __main__, the AttributeError that PEP 562 asks
    # of the package's __getattr__ for an unknown name, and the serializer's
    # two TypeErrors, which only a programming error in the CLI can reach
    assert sorted(found) == [
        ("__init__.py", "AttributeError"),
        ("__main__.py", "SystemExit"),
        ("cli.py", "TypeError"),
        ("cli.py", "TypeError"),
    ]


def _imports(package):
    """(file name, module) for every import of `package` or its submodules in the library."""
    found = []
    for file, node in _source_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [(file, m) for m in modules if m.partition(".")[0] == package]
    return found


def test_no_module_imports_dataclasses():
    # the records derive from extremals._Record; dataclasses would bring
    # inspect, ast and dis into every import of the package
    assert _imports("dataclasses") == []


def test_no_module_imports_scipy():
    # dense_eigenvalues, the finite-difference oracle, counts Sturm sign
    # changes with math alone; scipy is not a dependency
    assert _imports("scipy") == []


def test_area_where_the_slope_squared_overflows():
    # sqrt(1 + y'^2) is |y'| to the last bit from |y'| = 1e8 on, so the area
    # on a grid whose y'^2 overflows equals the area on one whose does not.
    y = 1.0 + np.array(_ZIGZAG)
    tiny = area_quadrature(1e-306 * np.linspace(-1.0, 1.0, 6), y)
    small = area_quadrature(1e-150 * np.linspace(-1.0, 1.0, 6), y)
    assert math.isfinite(tiny)
    assert abs(tiny / small - 1.0) <= 1e-14
