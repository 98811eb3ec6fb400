"""Small constructors that several test modules share."""

from __future__ import annotations

from phosmarket.rng import SeedSequence, Stream


def seeded_stream(seed: int) -> Stream:
    """The stream of ``np.random.default_rng(seed)``."""
    return Stream(SeedSequence(seed))
