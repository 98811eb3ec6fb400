"""Market-structure statistics computed on equilibrium flows.

Indices are computed in floating point from the exact integer flows; the
flows themselves never leave integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import Flows, MarketInstance


def concentration(j: int, flows: Flows, inst: MarketInstance) -> float:
    """Normalized concentration of market j over its m + 1 sources.

    Zero when all sources hold equal shares, one under monopoly.
    """
    d = inst.d[j]
    local = d - sum(row[j] for row in flows)
    shares_sq = (local / d) ** 2 + sum((row[j] / d) ** 2 for row in flows)
    k = inst.m + 1
    return (shares_sq - 1 / k) / (1 - 1 / k)


def diversification(i: int, flows: Flows, inst: MarketInstance) -> float | None:
    """Normalized spread of supplier i's sales across markets.

    Zero when active on a single market, one for an equal n-way split of the
    full capacity; ``None`` (undefined) when the supplier sold nothing.  At
    partial utilization the raw value is reported unclamped.
    """
    if inst.n < 2:
        raise ValueError("diversification needs at least two markets")
    if sum(flows[i]) == 0:
        return None
    cap = inst.s[i]
    shares_sq = sum((q / cap) ** 2 for q in flows[i])
    return 1 - (shares_sq - 1 / inst.n) / (1 - 1 / inst.n)


def local_share(j: int, flows: Flows, inst: MarketInstance) -> float:
    """Share of market j's demand served by local suppliers."""
    return (inst.d[j] - sum(row[j] for row in flows)) / inst.d[j]


def global_supplier_share(i: int, flows: Flows, demands: Sequence[int]) -> float:
    """Supplier i's sales as a share of total demand across all markets."""
    return sum(flows[i]) / sum(demands)


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and standard deviation (denominator B - 1; 0.0 when B = 1)."""
    if not values:
        raise ValueError("at least one replication is required")
    b = len(values)
    mean = sum(values) / b
    if b == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (b - 1)
    return mean, math.sqrt(var)
