"""Test settings shared by every test module.

Under CI (the ``CI`` environment variable set) hypothesis draws its
examples from a fixed seed derived from each test, so a red CI run
reproduces locally with ``CI=1 python -m pytest``; local runs stay
random.  Per-test ``@settings`` still set their own example counts on
top of the loaded profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
