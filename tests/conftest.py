"""Test-suite settings: property tests run a fixed, bounded set of examples,
so every tier-1 run checks the same cases."""

from hypothesis import settings

settings.register_profile("sosbeam", derandomize=True, max_examples=50, deadline=None,
                          database=None)
settings.load_profile("sosbeam")
