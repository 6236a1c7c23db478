"""Soap film between two coaxial unit rings: catenoids, stability, collapse.

The library answers, numerically and with cross-checked routes, the classic
minimal-surface questions for a film spanning unit rings at x = -h and
x = +h: which catenoids satisfy the boundary conditions, which of them
minimize area, where the family folds (h_star), where the two-disk
configuration takes over (the Goldschmidt threshold), and what force the
film exerts on the rings. A direct discretized minimizer confirms the
analytic picture without using the Euler equation.
"""

from importlib import import_module

__version__ = "0.1.0"

# Names resolve on first use (PEP 562), searched in this order. The first
# four modules never import numpy and are returned alone; spectrum imports it
# only in its array functions, so its names resolve without it. Any other
# module name, as `from soapfilm import spectrum` asks, imports every module.
_MODULES = ("errors", "rootfind", "extremals", "energetics", "spectrum",
            "grids", "variation", "direct_min")


def __getattr__(name):
    if name == "cli" or name in _MODULES[:4]:
        return import_module(f"{__name__}.{name}")
    names = []
    for module in (import_module(f"{__name__}.{m}") for m in _MODULES):
        if name in module.__all__:
            globals()[name] = getattr(module, name)
            return globals()[name]
        names += module.__all__
    if name not in ("__all__", *_MODULES):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()["__all__"] = names
    return globals()[name]


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})
