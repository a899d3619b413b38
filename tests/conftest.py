"""Hypothesis profiles. `--hypothesis-profile=ci` draws every property's
examples from a fixed seed, so that a failure in CI replays locally with the
same flag."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
