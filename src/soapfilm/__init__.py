"""Soap film between two coaxial unit rings: catenoids, stability, collapse.

The library answers, numerically and with cross-checked routes, the classic
minimal-surface questions for a film spanning unit rings at x = -h and
x = +h: which catenoids satisfy the boundary conditions, which of them
minimize area, where the family folds (h_star), where the two-disk
configuration takes over (the Goldschmidt threshold), and what force the
film exerts on the rings. A direct discretized minimizer confirms the
analytic picture without using the Euler equation.
"""

from . import (
    config, direct_min, energetics, errors, extremals, grids, rootfind, spectrum, variation,
)
from .config import *
from .direct_min import *
from .energetics import *
from .errors import *
from .extremals import *
from .grids import *
from .rootfind import *
from .spectrum import *
from .variation import *

__version__ = "0.1.0"

_MODULES = (config, direct_min, energetics, errors, extremals, grids, rootfind, spectrum, variation)
__all__ = [name for module in _MODULES for name in module.__all__]
