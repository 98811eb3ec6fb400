"""Small constructors that several test modules share."""

from __future__ import annotations

from typing import Sequence

from phosmarket.core import FlowMatrix
from phosmarket.rng import SeedSequence, Stream


def flow_matrix(rows: Sequence[Sequence[int]]) -> FlowMatrix:
    """A flow matrix with one row of per-market units per supplier."""
    return FlowMatrix(tuple(tuple(row) for row in rows))


def seeded_stream(seed: int) -> Stream:
    """The stream of ``np.random.default_rng(seed)``."""
    return Stream(SeedSequence(seed))
