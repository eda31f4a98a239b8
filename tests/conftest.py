"""Suite-wide test settings: every hypothesis test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
