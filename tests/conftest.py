"""Hypothesis draws the same examples on every run: no random seed and no
example database, so a failure reproduces and the warning count is fixed.
Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
