"""Test-session settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and replay none from an
# example database, so a Tier-1 run cannot pass once and fail the next time
# (an unseeded property test once failed at random).  Each test's own
# @settings, such as max_examples, still apply on top of this profile.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
