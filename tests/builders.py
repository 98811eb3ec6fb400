"""Small constructors that several test modules share."""

from __future__ import annotations

import numpy as np

from phosmarket.rng import Stream


def seeded_stream(seed: int) -> Stream:
    """The stream of ``np.random.default_rng(seed)``."""
    state = np.random.default_rng(seed).bit_generator.state["state"]
    return Stream(state["state"], state["inc"])
