"""Test-suite settings: hypothesis draws the same examples on every run.

derandomize seeds each property test from a hash of the test itself (and
turns off the example database), so a run's outcome depends only on the
code under test.  Per-test settings such as max_examples still apply.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
