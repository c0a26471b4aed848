import os

from hypothesis import settings

# Property tests draw fixed examples when CI is set, so a CI failure
# reproduces on rerun; local runs keep hypothesis's random search.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
