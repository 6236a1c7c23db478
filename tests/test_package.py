"""The package's public names: each module's __all__, gathered once.

The records among them are immutable named tuples, equal only within their
class, that validate on every construction.
"""

import ast
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

import soapfilm
from soapfilm import (
    direct_min,
    energetics,
    errors,
    extremals,
    grids,
    rootfind,
    spectrum,
    variation,
)
from soapfilm.errors import DomainError
from soapfilm.extremals import _Record

from fresh import loads

MODULES = (direct_min, energetics, errors, extremals, grids, rootfind, spectrum, variation)

# Every name the package exported when __all__ was written out by hand,
# except the retired ones: the DEFAULTS block, Bracket, r_of_tau and the five
# error classes folded into DomainError (DENSITY_ID came later and went too),
# then TWO_PI with its module config (math.tau is the same double), the
# test-only oracles riccati_residual and rayleigh_quotient, and
# MaxIterationsError, folded into ConvergenceFailureError.
EARLIER_EXPORTS = """
Branch Classification ConvergenceFailureError CriticalConstants DomainError
Extremal ForceSample InitPreset MinimizeReport NoExtremalError
Outcome Profile SoapFilmError StringSpectrum TestFunction VariationReport
area_along_direction area_closed_form area_quadrature
composite_simpson critical_constants critical_extremal dense_eigenvalues
discrete_area discrete_gradient eigenvalues eta_from_psi find_root_bracketed force
goldschmidt_constant minimize mu mu_prime negative_direction phi profile q_form
q_form_factored sampled_derivative shoot
small_h_asymptotics solve_branches taylor_probe third_variation
""".split()
RETIRED = """
DEFAULTS Bracket r_of_tau DENSITY_ID NoSignChangeError GridMismatchError
NonPositiveProfileError ZeroDenominatorError NotSupercriticalError
TWO_PI config riccati_residual rayleigh_quotient MaxIterationsError
""".split()

# Public names that no code in src/ calls. The paper's results and the
# checks a reader runs on them: critical_extremal, small_h_asymptotics,
# area_along_direction, q_form_factored, taylor_probe, third_variation,
# discrete_gradient. Names the benchmark times or checks against: phi,
# shoot, dense_eigenvalues, and find_root_bracketed, whose span the traced
# benchmark wraps by name.
UNCALLED = """
critical_extremal small_h_asymptotics area_along_direction q_form_factored
taylor_probe third_variation discrete_gradient phi shoot dense_eigenvalues
find_root_bracketed
""".split()


def test_all_is_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(soapfilm.__all__) == len(set(soapfilm.__all__))
    assert set(soapfilm.__all__) == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(soapfilm, name) is getattr(module, name)


def test_earlier_exports_still_resolve():
    assert len(EARLIER_EXPORTS) == 44
    for name in EARLIER_EXPORTS:
        assert name in soapfilm.__all__
        getattr(soapfilm, name)
    for retired in RETIRED:
        assert not hasattr(soapfilm, retired)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from soapfilm import *", namespace)
    for name in soapfilm.__all__:
        assert namespace[name] is getattr(soapfilm, name)


def test_dir_lists_the_public_names_and_all():
    # in a fresh interpreter, where dir() is the first to ask for __all__,
    # which needs every module but none of them imports numpy when it loads
    code = (
        "import soapfilm; listed = dir(soapfilm); "
        "assert '__all__' in listed and set(soapfilm.__all__) <= set(listed)"
    )
    assert not loads(code, "numpy")


def test_a_module_name_past_the_first_four_imports_every_module():
    # The traced benchmark rebinds the functions it spans in the modules
    # already imported, after `from soapfilm import ..., spectrum`.
    assert loads("from soapfilm import spectrum", "soapfilm.direct_min")
    assert not loads("import soapfilm.spectrum", "soapfilm.direct_min")


def test_submodule_names_resolve_to_the_submodules():
    for name in ("cli", *(module.__name__.rpartition(".")[2] for module in MODULES)):
        assert getattr(soapfilm, name) is importlib.import_module(f"soapfilm.{name}")


def _names_used(tree):
    """Names read and attributes taken in a module, each top-level def's own name
    excluded within its body (a recursive call is not a use)."""
    used = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        used |= names - {getattr(stmt, "name", None)}
    return used


def test_every_public_name_is_used_in_src_or_listed_as_uncalled():
    package = pathlib.Path(soapfilm.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    public = set(soapfilm.__all__)
    assert set(UNCALLED) <= public
    assert sorted(public - used - set(UNCALLED)) == []
    assert sorted(used & set(UNCALLED)) == []


def test_every_benchmark_span_resolves_on_the_package():
    # The traced benchmark run exits 2 on a spanned name that is gone; a
    # rename in src/ fails here first.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANNED and spans.COUNTED
    for module_name, attr, _ in spans.SPANNED + spans.COUNTED:
        assert callable(getattr(importlib.import_module(module_name), attr))


def _direction():
    """The lower catenoid at h = 0.4 and one arch cos(pi s/(2 tau)) over its [-tau, tau]."""
    lower = soapfilm.solve_branches(0.4)[0]
    arch = lambda s: np.cos(0.5 * np.pi * s / lower.tau)
    return lower, soapfilm.TestFunction.sample(arch, lower.tau, 257)


def _profile():
    return soapfilm.Profile(h=0.3, grid=np.linspace(-0.3, 0.3, 64), y=np.ones(64))


# An instance of each public record and, for those that validate, one field
# value that the constructor, and so _replace, rejects.
RECORDS = {
    "CriticalConstants": (soapfilm.critical_constants, {"h_star": 0.5}),
    "Extremal": (lambda: soapfilm.solve_branches(0.4)[0], {"tau": 2.0}),
    "ForceSample": (lambda: soapfilm.force(0.3), None),
    "StringSpectrum": (lambda: soapfilm.eigenvalues(1.2, 2), {"lambdas": (2.0, 1.0)}),
    "TestFunction": (lambda: _direction()[1], {"values": np.ones(257)}),
    "VariationReport": (lambda: soapfilm.taylor_probe(*_direction(), 1e-3), None),
    "Profile": (_profile, {"y": np.zeros(64)}),
    "MinimizeReport": (lambda: soapfilm.minimize(0.3, 64, _profile()), None),
}


def test_the_records_are_the_public_record_types():
    public = {name for name in soapfilm.__all__ if isinstance(getattr(soapfilm, name), type)}
    assert {name for name in public if issubclass(getattr(soapfilm, name), _Record)} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_an_immutable_tuple_that_validates(name):
    build, bad = RECORDS[name]
    record = build()
    cls = getattr(soapfilm, name)
    assert type(record) is cls and isinstance(record, tuple)
    for field in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
    # equal only to a record of its class, never to the plain tuple
    fields = tuple(record)
    assert record != fields and fields != record and not record == fields
    # positional, keyword and _replace construction give an equal record
    assert cls(*fields) == record
    assert cls(**record._asdict()) == record
    assert record._replace() == record
    if bad is not None:
        with pytest.raises(DomainError):
            record._replace(**bad)


def _bypass(record, **fields):
    """The record with fields replaced, skipping the checks _replace runs."""
    return tuple.__new__(type(record), tuple({**record._asdict(), **fields}.values()))


def _unequal_variants(record):
    """Copies of a record whose array (a nested record's, too) is shorter or off in one entry."""
    if isinstance(record, soapfilm.MinimizeReport):
        return [_bypass(record, final_profile=p) for p in _unequal_variants(record.final_profile)]
    field = "values" if isinstance(record, soapfilm.TestFunction) else "y"
    values = getattr(record, field)
    changed = values.copy()
    changed[1] += 1e-3
    return [_bypass(record, **{field: values[:-1]}), _bypass(record, **{field: changed})]


# The records with array fields, each built twice from fresh arrays.
ARRAY_RECORDS = {
    "TestFunction": lambda: soapfilm.TestFunction.sample(np.cos, np.pi / 2, 17),
    "Profile": _profile,
    "MinimizeReport": lambda: soapfilm.minimize(0.3, 64, _profile()),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_are_equal_by_shape_and_value(name):
    first, second = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert first == second and not first != second
    for other in _unequal_variants(first):
        assert first != other and not first == other and other != first
    with pytest.raises(TypeError):
        hash(first)
