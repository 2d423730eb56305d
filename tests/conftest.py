"""Test-wide settings.

Hypothesis draws its examples from a seed derived from each test, not at
random, so every run of the suite tests the same inputs and a failure
found once is found again.  Each test keeps its own ``max_examples`` and
``deadline``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
