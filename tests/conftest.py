"""Test-suite configuration.

When hypothesis is installed, a `ci` profile makes the property tests
deterministic (derandomized, a fixed number of examples, no example
database); select it with HYPOTHESIS_PROFILE=ci.  Setting
HYPOTHESIS_PROFILE without hypothesis installed is an error, so a run that
asks for the property tests cannot pass with them skipped.
"""

import os

PROFILE = os.environ.get("HYPOTHESIS_PROFILE")

try:
    from hypothesis import settings
except ImportError as exc:
    if PROFILE is not None:
        raise ImportError(
            f"HYPOTHESIS_PROFILE={PROFILE} is set but hypothesis does not import; "
            "the property tests would be skipped"
        ) from exc
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, max_examples=100, database=None)
    settings.load_profile(PROFILE or "default")
