"""One hypothesis profile for the whole suite.

derandomize=True seeds each property test from a hash of the test itself,
so every run draws the same examples and takes the same time; it also
turns off the example database, so no earlier failure is replayed.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")
