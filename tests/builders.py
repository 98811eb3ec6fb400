"""Small constructors that several test modules share."""

from __future__ import annotations

import numpy as np

from phosmarket.rng import Stream


def seeded_stream(seed: int) -> Stream:
    """The stream of ``np.random.default_rng(seed)``."""
    return Stream(np.random.SeedSequence(seed).generate_state(8).tolist())
