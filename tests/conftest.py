"""Shared test settings: property tests draw a fixed, derandomized set of examples."""

from hypothesis import settings

settings.register_profile("wellprobe", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("wellprobe")
