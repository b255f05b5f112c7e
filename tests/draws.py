"""How many examples each property test draws.

Every property test sets ``max_examples=examples(base)``: its base count
times the integer in the ``MCFDM_EXAMPLES_SCALE`` environment variable,
which defaults to 1. A deeper run asks every property test for more draws
at once, and ``--hypothesis-profile=hunt`` (see conftest.py) draws new
examples on every run and prints the blob that replays a failure:

    MCFDM_EXAMPLES_SCALE=10 python -m pytest -m hypothesis --hypothesis-profile=hunt tests
"""

import os

SCALE = int(os.environ.get("MCFDM_EXAMPLES_SCALE", "1"))


def examples(base: int) -> int:
    """``base`` examples at scale 1, ``base * SCALE`` at any other."""
    return base * SCALE
