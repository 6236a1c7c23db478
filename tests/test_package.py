"""The package's public names: each module's __all__, gathered once."""

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

MODULES = (config, direct_min, energetics, errors, extremals, grids, rootfind, spectrum, variation)

# Every name the package exported when __all__ was written out by hand,
# except the retired DEFAULTS block.
EARLIER_EXPORTS = """
Bracket Branch Classification ConvergenceFailureError CriticalConstants DomainError
Extremal ForceSample GridMismatchError InitPreset MaxIterationsError MinimizeReport
NoExtremalError NoSignChangeError NonPositiveProfileError NotSupercriticalError
Outcome Profile SoapFilmError StringSpectrum TWO_PI TestFunction VariationReport
ZeroDenominatorError area_along_direction area_closed_form area_quadrature
composite_simpson critical_constants critical_extremal dense_eigenvalues
discrete_area discrete_gradient eigenvalues eta_from_psi find_root_bracketed force
goldschmidt_constant minimize mu mu_prime negative_direction phi profile q_form
q_form_factored r_of_tau rayleigh_quotient riccati_residual sampled_derivative shoot
small_h_asymptotics solve_branches taylor_probe third_variation
""".split()


def test_all_is_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(soapfilm.__all__) == len(set(soapfilm.__all__))
    assert set(soapfilm.__all__) == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(soapfilm, name) is getattr(module, name)


def test_earlier_exports_still_resolve():
    assert len(EARLIER_EXPORTS) == 55
    for name in EARLIER_EXPORTS:
        assert name in soapfilm.__all__
        getattr(soapfilm, name)
    assert not hasattr(soapfilm, "DEFAULTS")
    assert not hasattr(config, "DEFAULTS")
