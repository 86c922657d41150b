"""Test-suite configuration.

When hypothesis is installed, a `ci` profile makes the property tests
deterministic (derandomized, a fixed number of examples, no example
database); select it with HYPOTHESIS_PROFILE=ci.
"""

import os

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, max_examples=100, database=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
