"""Market-structure statistics computed on equilibrium flows, and their summaries.

Indices are computed in floating point from the exact integer flows; the
flows themselves never leave integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .core import Flows, MarketInstance


class MarketStructure(NamedTuple):
    """The structure statistics of one equilibrium.

    Per market: ``concentration`` over its m + 1 sources (0 at equal
    shares, 1 under monopoly) and ``local_share``, the share of its demand
    served locally.  Per supplier: ``diversification``, the spread of its
    sales over markets (0 on one market, 1 for an equal n-way split of its
    full capacity, unclamped at partial use, ``None`` if it sold nothing),
    and ``global_share``, its sales as a share of total demand.
    """

    concentration: tuple[float, ...]
    local_share: tuple[float, ...]
    diversification: tuple[float | None, ...]
    global_share: tuple[float, ...]


def structure(flows: Flows, inst: MarketInstance) -> MarketStructure:
    """Every structure statistic of ``flows``, summing each market and supplier once."""
    n, k = inst.n, inst.m + 1
    floor_k, span_k = 1 / k, 1 - 1 / k  # the concentration of equal shares, and its range
    concentration, local_share = [], []
    for d, imports in zip(inst.d, zip(*flows)):
        local = d - sum(imports)
        shares_sq = (local / d) ** 2 + sum([(q / d) ** 2 for q in imports])
        concentration.append((shares_sq - floor_k) / span_k)
        local_share.append(local / d)
    sold = list(map(sum, flows))
    diversification = tuple(
        [
            None if total == 0 else 1 - (sum([(q / cap) ** 2 for q in row]) - 1 / n) / (1 - 1 / n)
            for cap, row, total in zip(inst.s, flows, sold)
        ]
    )
    total_demand = sum(inst.d)
    global_share = tuple([total / total_demand for total in sold])
    return MarketStructure(tuple(concentration), tuple(local_share), diversification, global_share)


def summary(values: Iterable[float | None]) -> tuple[float | None, float | None, int]:
    """Mean, sample SD (0.0 for one value) and count of the values that are not ``None``.

    Returns ``(None, None, 0)`` when no value is defined.
    """
    defined = [value for value in values if value is not None]
    b = len(defined)
    if not b:
        return None, None, 0
    mean = sum(defined) / b
    if b == 1:
        return mean, 0.0, b
    return mean, math.sqrt(sum([(v - mean) ** 2 for v in defined]) / (b - 1)), b
