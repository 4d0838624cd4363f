"""Settings shared by every test module."""

from hypothesis import settings

# every property draws the same examples on every run, keeps no example
# database and has no deadline, so a slow or noisy machine cannot make it flaky
settings.register_profile("lehmann", derandomize=True, database=None, deadline=None)
settings.load_profile("lehmann")
