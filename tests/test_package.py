"""The package's public names: each module's __all__, gathered once."""

import importlib

import soapfilm
from soapfilm import (
    config,
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

MODULES = (config, direct_min, energetics, errors, extremals, grids, rootfind, spectrum, variation)

# Every name the package exported when __all__ was written out by hand,
# except the retired ones: the DEFAULTS block, Bracket, r_of_tau and the five
# error classes folded into DomainError (DENSITY_ID came later and went too).
EARLIER_EXPORTS = """
Branch Classification ConvergenceFailureError CriticalConstants DomainError
Extremal ForceSample InitPreset MaxIterationsError MinimizeReport NoExtremalError
Outcome Profile SoapFilmError StringSpectrum TWO_PI TestFunction VariationReport
area_along_direction area_closed_form area_quadrature
composite_simpson critical_constants critical_extremal dense_eigenvalues
discrete_area discrete_gradient eigenvalues eta_from_psi find_root_bracketed force
goldschmidt_constant minimize mu mu_prime negative_direction phi profile q_form
q_form_factored rayleigh_quotient riccati_residual sampled_derivative shoot
small_h_asymptotics solve_branches taylor_probe third_variation
""".split()
RETIRED = """
DEFAULTS Bracket r_of_tau DENSITY_ID NoSignChangeError GridMismatchError
NonPositiveProfileError ZeroDenominatorError NotSupercriticalError
""".split()


def test_all_is_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(soapfilm.__all__) == len(set(soapfilm.__all__))
    assert set(soapfilm.__all__) == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(soapfilm, name) is getattr(module, name)


def test_earlier_exports_still_resolve():
    assert len(EARLIER_EXPORTS) == 48
    for name in EARLIER_EXPORTS:
        assert name in soapfilm.__all__
        getattr(soapfilm, name)
    assert not hasattr(config, "DEFAULTS")
    for retired in RETIRED:
        assert not hasattr(soapfilm, retired)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from soapfilm import *", namespace)
    for name in soapfilm.__all__:
        assert namespace[name] is getattr(soapfilm, name)


def test_dir_lists_the_public_names_and_all():
    # in a fresh interpreter, where dir() is the first to ask for __all__,
    # which needs every module and so numpy
    code = (
        "import soapfilm; listed = dir(soapfilm); "
        "assert '__all__' in listed and set(soapfilm.__all__) <= set(listed)"
    )
    assert loads(code, "numpy")


def test_submodule_names_resolve_to_the_submodules():
    for name in ("cli", *(module.__name__.rpartition(".")[2] for module in MODULES)):
        assert getattr(soapfilm, name) is importlib.import_module(f"soapfilm.{name}")
