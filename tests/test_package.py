"""The package's public names: each module's __all__, gathered once."""

import ast
import importlib
import importlib.util
import pathlib

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

from fresh import loads

MODULES = (direct_min, energetics, errors, extremals, grids, rootfind, spectrum, variation)

# Every name the package exported when __all__ was written out by hand,
# except the retired ones: the DEFAULTS block, Bracket, r_of_tau and the five
# error classes folded into DomainError (DENSITY_ID came later and went too),
# then TWO_PI with its module config (math.tau is the same double) and the
# test-only oracles riccati_residual and rayleigh_quotient.
EARLIER_EXPORTS = """
Branch Classification ConvergenceFailureError CriticalConstants DomainError
Extremal ForceSample InitPreset MaxIterationsError MinimizeReport NoExtremalError
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
TWO_PI config riccati_residual rayleigh_quotient
""".split()

# Public names that no code in src/ calls. The paper's results and the
# checks a reader runs on them: critical_extremal, small_h_asymptotics,
# area_along_direction, q_form_factored, taylor_probe, third_variation,
# discrete_area, discrete_gradient. Names the benchmark times or checks
# against: phi, shoot, dense_eigenvalues.
UNCALLED = """
critical_extremal small_h_asymptotics area_along_direction q_form_factored
taylor_probe third_variation discrete_area discrete_gradient phi shoot
dense_eigenvalues
""".split()


def test_all_is_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(soapfilm.__all__) == len(set(soapfilm.__all__))
    assert set(soapfilm.__all__) == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(soapfilm, name) is getattr(module, name)


def test_earlier_exports_still_resolve():
    assert len(EARLIER_EXPORTS) == 45
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
