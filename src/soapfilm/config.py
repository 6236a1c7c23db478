"""The one constant shared across modules.

Every other tolerance, budget and resolution is a private constant of the
one module that reads it.
"""

import math

__all__ = ["TWO_PI"]

# Single source of truth for every comparison against 2*pi (disk areas,
# gradient tolerances, area prefactors).
TWO_PI = 2.0 * math.pi
