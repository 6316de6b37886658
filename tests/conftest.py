"""Suite-wide settings: every hypothesis test runs under one profile.

``derandomize`` draws the same examples on every run, so the suite's
outcome does not depend on the run; ``deadline=None`` keeps a slow or
drifting machine from failing an example on time alone.
"""
from hypothesis import settings

settings.register_profile("attmot", deadline=None, derandomize=True)
settings.load_profile("attmot")
