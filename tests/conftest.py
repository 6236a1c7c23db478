"""Shared test settings: a deterministic, bounded hypothesis profile.

Derandomized runs draw the same examples every time, so property tests are
as reproducible as the rest of the suite; no deadline, because a slow or
busy machine must not turn a correct run into a failure.
"""

from hypothesis import settings

settings.register_profile(
    "soapfilm", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("soapfilm")
