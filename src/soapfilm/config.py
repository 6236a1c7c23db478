"""Shared numeric defaults.

Every tunable the command line exposes lives in one frozen block so output
records can echo the exact configuration that produced them.
"""

import math
from dataclasses import asdict, dataclass

# Single source of truth for every comparison against 2*pi (disk areas,
# gradient tolerances, area prefactors).
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Defaults:
    """Default resolutions and tolerances used across the library."""

    grid_samples: int = 2048
    spectrum_steps: int = 2048
    root_tol_x: float = 1e-12
    root_tol_f: float = 1e-12
    root_max_iter: int = 200
    minimize_floor: float = 1e-6
    minimize_collapse_factor: float = 10.0
    minimize_grad_tol_factor: float = 1e-8
    minimize_shrink: float = 0.5
    minimize_armijo: float = 1e-4
    minimize_max_iter: int = 100_000


DEFAULTS = Defaults()


def config_dict() -> dict:
    """The defaults as a plain dict, for echoing into output records."""
    return asdict(DEFAULTS)
