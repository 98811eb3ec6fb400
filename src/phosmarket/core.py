"""Shared domain types and exact-arithmetic conventions.

Quantities are nonnegative integers counted in goods units (one unit is a
quantum of P2O5 mass; kilotonnes by default, configurable in the pipeline).
Money values are integers in minor cost units, a fixed-point representation
of the relative cost unit (the run's ``money_scale`` minor units equal
1.00).  Every spending, valuation and utility value downstream is computed
on these integer grids and never rounds.

Records are ``typing.NamedTuple`` classes: immutable, hashable, comparable
and picklable, and much cheaper to define at import time than dataclasses.
Only records that validate on construction or that callers rebuild with
``dataclasses.replace`` stay dataclasses.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Supplier markups in minor units, one entry per international supplier.
MarkupVector = tuple[int, ...]


def quantize(value: float, unit: float) -> int:
    """Round a physical value onto the integer goods grid (half away up)."""
    if unit <= 0:
        raise ValueError("unit size must be positive")
    return int(math.floor(value / unit + 0.5))


def to_minor(value: float, scale: int) -> int:
    """Round a relative cost value to ``scale`` minor units per unit (half away up)."""
    if scale <= 0:
        raise ValueError("money scale must be positive")
    if value >= 0:
        return int(math.floor(value * scale + 0.5))
    return -int(math.floor(-value * scale + 0.5))


class MarketInstance(NamedTuple):
    """One fully calibrated auction problem.

    Attributes:
        s: per-supplier annual capacities (units, each >= 1).
        d: per-market demands (units, each >= 1).
        a: inventory/congestion cost constant (minor units per unit squared).
        c_o: per-market local unit production costs (minor units, > 0).
        t: m x n unit trade costs (minor units); ``None`` marks a pair closed
            to trade: a supplier may ship to a market exactly where its cost
            is not ``None``.
    """

    s: tuple[int, ...]
    d: tuple[int, ...]
    a: int
    c_o: tuple[int, ...]
    t: tuple[tuple[int | None, ...], ...]

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def n(self) -> int:
        return len(self.d)


def validate_instance(inst: MarketInstance) -> list[str]:
    """Return the list of violated instance invariants (empty when valid)."""
    issues: list[str] = []
    m, n = inst.m, inst.n
    if m < 1:
        issues.append("instance must have at least one supplier")
    if n < 1:
        issues.append("instance must have at least one market")
    if len(inst.c_o) != n:
        issues.append("local cost vector length must equal market count")
    if len(inst.t) != m or any(len(row) != n for row in inst.t):
        issues.append("trade cost table must be m x n")
    for i, cap in enumerate(inst.s):
        if cap < 1:
            issues.append(f"capacity must be >= 1 (supplier {i})")
    for j, dem in enumerate(inst.d):
        if dem < 1:
            issues.append(f"demand must be >= 1 (market {j})")
    if inst.a < 0:
        issues.append("inventory cost constant must be >= 0")
    for j, cost in enumerate(inst.c_o):
        if cost <= 0:
            issues.append(f"local unit cost must be > 0 (market {j})")
    for i, row in enumerate(inst.t):
        for j, cost in enumerate(row):
            if cost is not None and cost < 0:
                issues.append(f"negative trade cost on pair ({i}, {j})")
    return issues


def require_valid(inst: MarketInstance) -> None:
    """Raise ``ValueError`` when the instance breaks any invariant."""
    issues = validate_instance(inst)
    if issues:
        raise ValueError("invalid market instance: " + "; ".join(issues))


class FlowMatrix(NamedTuple):
    """Integer goods flows from each international supplier to each market.

    Local supply is derived, never stored: ``x_o[j] = d[j] - imports into j``.
    """

    x: tuple[tuple[int, ...], ...]

    def supplier_total(self, i: int) -> int:
        return sum(self.x[i])

    def market_total(self, j: int) -> int:
        return sum(row[j] for row in self.x)

    @staticmethod
    def from_rows(rows: list[list[int]]) -> FlowMatrix:
        return FlowMatrix(tuple(tuple(row) for row in rows))


def validate_flows(flows: FlowMatrix, inst: MarketInstance) -> list[str]:
    """Return violated flow invariants against the given instance."""
    issues: list[str] = []
    m, n = inst.m, inst.n
    if len(flows.x) != m or any(len(row) != n for row in flows.x):
        return ["flow matrix must be m x n"]
    for i in range(m):
        for j in range(n):
            q = flows.x[i][j]
            if q < 0:
                issues.append(f"negative flow on pair ({i}, {j})")
            if q > 0 and inst.t[i][j] is None:
                issues.append(f"flow crosses masked pair ({i}, {j})")
        if flows.supplier_total(i) > inst.s[i]:
            issues.append(f"capacity exceeded (supplier {i})")
    for j in range(n):
        if flows.market_total(j) > inst.d[j]:
            issues.append(f"imports exceed demand (market {j})")
    return issues


class Equilibrium(NamedTuple):
    """Markups and flows jointly satisfying the three market conditions."""

    markups: MarkupVector
    flows: FlowMatrix
