"""Brute-force reference oracles for small market instances (test-only code).

:func:`brute_force_equilibrium` finds the componentwise smallest equilibrium
markups by scanning the integer markup grid and enumerating every bundle, so
it shares nothing with the production solver but the instance type and
:func:`~phosmarket.auction.local_spend`.  Its cost grows exponentially with
the supplier count; the tests use it on instances with a few units.

:func:`enumerating_auction` and :func:`enumerating_certificate` take the
ascending auction's ticks and the minimality certificate's two tests by
evaluating the auction's objective (:func:`lyapunov`) one tick away along
every set of suppliers, 2^m sets per step, where the production code reads
each step off one min cut.

:func:`concentration`, :func:`diversification`, :func:`local_share` and
:func:`global_supplier_share` compute one structure index at a time, each
summing the flows it reads afresh, where
:func:`~phosmarket.metrics.structure` sums every market and supplier once.

:func:`history_share_change` and :func:`draw_share_changes` spell out a
real market-share change in the two forms the trade-cost model needs it: per
flow of the history, and per market from one draw's demand units.
:func:`~phosmarket.bootstrap.real_share_changes` must equal both.

:func:`demand_draw_loop` and :func:`trade_cost_loop` compute every term of
a draw from the fit's series and draw each bounded integer alone, where the
samplers read the fits' per-sign terms and draw their integers in batches.
:func:`built_market_network` builds the solver's network arc by arc for one
instance, where :func:`~phosmarket.auction._market_network` fills the arcs
of a start's pattern.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from phosmarket.auction import (
    AuctionError,
    FlowStart,
    _market_sources,
    _markup_bound,
    _min_spend,
    _Network,
    local_spend,
)
from phosmarket.bootstrap import (
    MAX_REDRAWS,
    CalibrationError,
    TradeCostFit,
    TwoStageFit,
    real_share_changes,
)
from phosmarket.core import Equilibrium, Flows, MarketInstance, require_valid, to_minor
from phosmarket.rng import Stream


class EnumerationBudgetError(RuntimeError):
    """The brute-force oracle exceeded its enumeration budget."""


def import_spend(z: int, i: int, j: int, inst: MarketInstance) -> int:
    """Spending on ``z`` units shipped from supplier i at cost value."""
    cost = inst.t[i][j]
    if cost is None:
        raise ValueError(f"pair (supplier {i}, market {j}) is masked")
    if not 0 <= z <= inst.s[i]:
        raise ValueError(f"import {z} outside [0, {inst.s[i]}]")
    return z * (inst.a * z + cost)


def _bundles(inst: MarketInstance, j: int) -> list[tuple[int, ...]]:
    ranges = [
        range(inst.s[i] + 1) if inst.t[i][j] is not None else range(1)
        for i in range(inst.m)
    ]
    return [z for z in itertools.product(*ranges) if sum(z) <= inst.d[j]]


def _enumerated_values(inst: MarketInstance, j: int, bundles: list[tuple[int, ...]]) -> list[int]:
    """Valuation of every bundle by direct enumeration of sub-bundles."""
    savings = {}
    for w in bundles:
        total = sum(w)
        cost = sum(
            w[i] * (inst.a * w[i] + inst.t[i][j])  # type: ignore[operator]
            for i in range(inst.m)
            if w[i]
        )
        savings[w] = (
            local_spend(inst.d[j], j, inst)
            - local_spend(inst.d[j] - total, j, inst)
            - cost
        )
    values = []
    for z in bundles:
        values.append(
            max(
                savings[w]
                for w in bundles
                if all(w[i] <= z[i] for i in range(inst.m))
            )
        )
    return values


def _markup_vectors(m: int, p_max: int) -> Iterator[tuple[int, ...]]:
    """All vectors on [0, p_max]^m ordered by total, then lexicographically."""

    def compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if total <= p_max:
                yield (total,)
            return
        first_min = max(0, total - (slots - 1) * p_max)
        for first in range(first_min, min(total, p_max) + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first, *rest)

    for total in range(m * p_max + 1):
        yield from compositions(total, m)


def brute_force_equilibrium(
    inst: MarketInstance, p_max: int | None = None, *, budget: int = 500_000
) -> Equilibrium:
    """Smallest-markup equilibrium by exhaustive enumeration (test oracle).

    Markup vectors on the integer grid are scanned in order of total then
    lexicographically; at each vector every jointly feasible selection of
    payoff-maximizing bundles is searched for one satisfying capacity and
    clearance.  Intended for small instances only.
    """
    require_valid(inst)
    m, n = inst.m, inst.n
    if p_max is None:
        p_max = _markup_bound(inst)
    bundles = [_bundles(inst, j) for j in range(n)]
    values = [_enumerated_values(inst, j, bundles[j]) for j in range(n)]

    examined = 0
    for markups in _markup_vectors(m, p_max):
        examined += 1
        if examined > budget:
            raise EnumerationBudgetError(
                f"enumeration budget exhausted after {budget} markup vectors"
            )
        argmax: list[list[tuple[int, ...]]] = []
        for j in range(n):
            utilities = [
                value - sum(p * q for p, q in zip(markups, z))
                for z, value in zip(bundles[j], values[j])
            ]
            best = max(utilities)
            argmax.append(
                [z for z, u in zip(bundles[j], utilities) if u == best]
            )
        selection = _select_flows(inst, markups, argmax)
        if selection is not None:
            return Equilibrium(markups, selection)
    raise AuctionError("no equilibrium found on the markup grid")


def _select_flows(
    inst: MarketInstance,
    markups: tuple[int, ...],
    argmax: list[list[tuple[int, ...]]],
) -> Flows | None:
    """Pick one argmax bundle per market meeting capacity and clearance."""
    m, n = inst.m, inst.n
    chosen: list[tuple[int, ...]] = []
    seen: set[tuple[int, tuple[int, ...], frozenset[int]]] = set()
    lacking0 = frozenset(i for i in range(m) if markups[i] > 0)

    def search(j: int, caps: tuple[int, ...], lacking: frozenset[int]) -> bool:
        if j == n:
            return not lacking
        state = (j, caps, lacking)
        if state in seen:
            return False
        for z in argmax[j]:
            if all(z[i] <= caps[i] for i in range(m)):
                chosen.append(z)
                left = frozenset(i for i in lacking if not z[i])
                if search(j + 1, tuple(caps[i] - z[i] for i in range(m)), left):
                    return True
                chosen.pop()
        seen.add(state)
        return False

    if not search(0, inst.s, lacking0):
        return None
    return tuple(tuple(chosen[j][i] for j in range(n)) for i in range(m))


# ---------------------------------------------------------------------------
# The auction's objective, stepped along every supplier set


def lyapunov(inst: MarketInstance, markups: Sequence[int]) -> int:
    """The auction's objective ``L(p) = p.s - sum_j minspend_j(p)``."""
    value = sum(p * cap for p, cap in zip(markups, inst.s))
    for j in range(inst.n):
        value -= _min_spend(_market_sources(inst, j, markups), inst.a, inst.d[j])[0]
    return value


def step_values(
    inst: MarketInstance, markups: Sequence[int], suppliers: Sequence[int], sign: int
) -> dict[tuple[int, ...], int]:
    """``L(p + sign * e_S) - L(p)`` for every subset S of ``suppliers`` (sorted tuples)."""
    here = lyapunov(inst, markups)
    values = {}
    for size in range(len(suppliers) + 1):
        for subset in itertools.combinations(suppliers, size):
            moved = [p + sign * (i in subset) for i, p in enumerate(markups)]
            values[subset] = lyapunov(inst, moved) - here
    return values


def smallest_minimizer(values: dict[tuple[int, ...], int]) -> tuple[int, tuple[int, ...]]:
    """The least of ``values`` and the intersection of the sets attaining it.

    Raises :class:`AuctionError` when that intersection does not attain it:
    then the objective is not submodular, and demand not substitutable.
    """
    best = min(values.values())
    common = set.intersection(*(set(key) for key, value in values.items() if value == best))
    smallest = tuple(sorted(common))
    if values[smallest] != best:
        raise AuctionError("descent directions do not intersect; demand is not substitutable")
    return best, smallest


def enumerating_auction(inst: MarketInstance, trace: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The ascending auction's minimal markups, each tick by enumeration.

    Each tick raises the smallest supplier set that minimizes ``L(p + e_S)
    - L(p)`` and appends the markups to ``trace``; it stops when that set is
    empty.
    """
    require_valid(inst)
    markups = [0] * inst.m
    for _ in range(inst.m * (_markup_bound(inst) + 1) + 1):
        trace.append(tuple(markups))
        _, raised = smallest_minimizer(step_values(inst, markups, range(inst.m), 1))
        if not raised:
            return tuple(markups)
        for i in raised:
            markups[i] += 1
    raise AuctionError("tick budget exhausted without reaching an equilibrium")


def enumerating_certificate(inst: MarketInstance, markups: Sequence[int]) -> bool:
    """Whether no one-tick step lowers L and every step down within ``p >= 0`` raises it."""
    if min(step_values(inst, markups, range(inst.m), 1).values()) < 0:
        return False
    marked = [i for i, p in enumerate(markups) if p >= 1]
    down = step_values(inst, markups, marked, -1)
    return all(value > 0 for subset, value in down.items() if subset)


# ---------------------------------------------------------------------------
# Market-structure indices, one at a time


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


# ---------------------------------------------------------------------------
# Real market-share changes, spelled out


def history_share_change(
    share: dict[tuple[str, int], float],
    region: str,
    year: int,
    reference_market: str,
    reference_year: int,
) -> float:
    """``region``'s real share change in ``year``; ``share`` maps (region, year) to a share."""
    growth = share[(reference_market, year)] / share[(reference_market, reference_year)]
    real_share = share[(region, year)] / growth
    return real_share - share[(region, reference_year)]


def draw_share_changes(
    d_units: Sequence[int], ref_shares: Sequence[float], reference: int
) -> tuple[float, ...]:
    """Every market's real share change under one draw's demand units."""
    total_units = sum(d_units)
    ref_growth = (d_units[reference] / total_units) / ref_shares[reference]
    return tuple(
        (d_units[j] / total_units) / ref_growth - ref_shares[j] for j in range(len(d_units))
    )


# ---------------------------------------------------------------------------
# The samplers' draws, every term computed in the draw


def demand_draw_loop(
    fit: TwoStageFit, z_scenario: float, rng: Stream, *, min_value: float
) -> tuple[float, int]:
    """:func:`~phosmarket.bootstrap.wild_bootstrap_demand`, simulating each series value."""
    z, u1, u2 = fit.z, fit.u1, fit.u2
    alpha, beta, zz = fit.alpha, fit.beta, fit.zz
    p = len(z)
    for rejected in range(MAX_REDRAWS + 1):
        w2 = rng.signs(p)
        w1 = rng.signs(p)
        zx_star = zy_star = 0.0
        for zk, s2, u2k, s1, u1k in zip(z, w2, u2, w1, u1):
            xk = alpha * zk + s2 * u2k
            zx_star += zk * xk
            zy_star += zk * (beta * xk + s1 * u1k)
        if zx_star != 0.0:
            alpha_star = zx_star / zz
            beta_star = zy_star / zx_star
            draw = beta_star * alpha_star * z_scenario
            if draw > 0.0 and draw >= min_value:
                return draw, rejected
    raise CalibrationError("demand redraw budget exceeded")


def trade_cost_loop(
    fit: TradeCostFit, demands: Sequence[int], rng: Stream, *, scale: int
) -> tuple[tuple[int | None, ...], ...]:
    """:func:`~phosmarket.bootstrap.sample_trade_costs`, resampling each cost change."""
    total = sum(demands)
    changes = real_share_changes([d / total for d in demands], fit.ref_shares, fit.reference)
    v, residuals = fit.v, fit.residuals
    signs = rng.signs(len(residuals))
    w_star = [fit.gamma * vk + sign * r for vk, sign, r in zip(v, signs, residuals)]
    vw = 0.0
    for vk, wk in zip(v, w_star):
        vw += vk * wk
    gamma_star = vw / fit.vv
    rows = []
    for base_row in fit.base_costs:
        row: list[int | None] = []
        for j, base in enumerate(base_row):
            if base is None:
                row.append(None)
                continue
            eps = residuals[rng.below([len(residuals)])[0]]
            noise = (rng.below([2])[0] * 2 - 1) * eps
            row.append(max(0, to_minor(base + gamma_star * changes[j] + noise, scale)))
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The solver's network, built arc by arc


def built_market_network(inst: MarketInstance, start: FlowStart) -> tuple[_Network, list[int]]:
    """The market network of ``inst`` with ``start``'s flows clipped to each arc."""
    m, n = inst.m, inst.n
    source = m + n
    net = _Network(source + 1)
    for i in range(m):
        net.add(source, i, inst.s[i])
    for j in range(n):
        net.add(source, m + j, inst.d[j], inst.c_o[j], inst.a)
        for i in range(m):
            cost = inst.t[i][j]
            if cost is not None:
                net.add(i, m + j, min(inst.s[i], inst.d[j]), cost, inst.a)
    excess = [0] * m + [-d for d in inst.d] + [sum(inst.d)]
    for e, f in zip(range(0, len(net.head), 2), start.flow):
        f = min(max(f, 0), net.cap[e])
        net.flow[e], net.flow[e + 1] = f, -f
        excess[net.head[e + 1]] -= f
        excess[net.head[e]] += f
    return net, excess
