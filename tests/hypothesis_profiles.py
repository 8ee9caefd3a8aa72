"""Hypothesis profiles for the suite.

* ``tier1`` (loaded by default): derandomized, no example database, no
  deadline — the verdict is a function of the code alone, never of an
  untracked ``.hypothesis/`` directory, a random seed or a loaded machine.
* ``explore``: random examples, the example database on, and 100× the
  example budget.  Run it with
  ``PYTHONPATH=src python -m pytest -q --hypothesis-profile=explore tests/``;
  each failure it finds lands as an ``@example`` next to its fix.

A test that pins its own budget writes ``max_examples=examples(n)``: ``n``
under ``tier1``, scaled by the loaded profile's budget otherwise.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings

TIER1_EXAMPLES = 100
EXPLORE_SCALE = 100

settings.register_profile(
    "tier1",
    max_examples=TIER1_EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "explore",
    max_examples=TIER1_EXAMPLES * EXPLORE_SCALE,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def examples(n: int) -> int:
    """The example budget for a test that runs ``n`` examples under ``tier1``."""
    return max(1, n * settings.default.max_examples // TIER1_EXAMPLES)
