"""Shared test settings: a deterministic, bounded hypothesis profile, no bytecode.

Derandomized runs draw the same examples every time, so property tests are
as reproducible as the rest of the suite; no deadline, because a slow or
busy machine must not turn a correct run into a failure.
"""

import os
import sys

from hypothesis import settings

# A test run writes no bytecode into src/, nor do the interpreters it starts:
# stale __pycache__ directories would skew a later cold-start measurement.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

settings.register_profile(
    "soapfilm", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("soapfilm")
