"""Bootstrap generation of scenario inputs: demands, capacities, costs.

Scenario demand follows a two-stage regression (demand on total fertilizer
consumption, instrumented by crop-level fertilizer use) resampled with a wild
unrestricted residual bootstrap; capacities track bootstrapped global demand
at historical supplier shares with resampled disturbances; trade costs shift
with a regression of cost changes on real market-share changes; local costs
are calibrated so each market's local supply meets its drawn demand exactly
at unit market price.

All samplers take an explicit, replication-indexed random stream derived from
the master seed by a counter-based scheme, so replications are independent
and insensitive to worker scheduling.  The streams are
:class:`~phosmarket.rng.Stream` objects, pure-Python PCG64 streams that draw
exactly what NumPy's ``default_rng`` would from the same ``SeedSequence``;
dot products sum sequentially in index order, from terms that the fits
store for either sign of a draw's Rademacher weights (:func:`_by_sign`).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .core import quantize, to_minor
from .rng import Stream, StreamSeeds, spawn


class CalibrationError(ValueError):
    """A sampler or calibration rule cannot produce a valid draw."""


def replication_streams(
    seeds: StreamSeeds, replication: int
) -> tuple[list[Stream], Stream, Stream]:
    """One replication's demand streams, one per region, then its capacity and cost streams.

    ``seeds`` is ``stream_seeds(master_seed, n_regions + 2)``.
    """
    *demand, capacity, costs = spawn(seeds, replication)
    return demand, capacity, costs


def _by_sign(plus: float, minus: float) -> tuple[float, float, float]:
    """A term at sign 1 and -1, indexed by the sign (``x + s * y`` is ``x ± y``, bit for bit)."""
    return (0.0, plus, minus)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Inner product summed in index order."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


# ---------------------------------------------------------------------------
# Demand


def smooth_cma3(series: Sequence[float]) -> list[float]:
    """Central moving average with span 3; endpoints are dropped."""
    return [
        (series[k - 1] + series[k] + series[k + 1]) / 3
        for k in range(1, len(series) - 1)
    ]


class TwoStageFit(NamedTuple):
    """Instrumental-variables fit of the two demand equations (no intercepts).

    A draw simulates ``x*_k = alpha z_k + s2_k u2_k`` and ``y*_k = beta x*_k
    + s1_k u1_k`` and reads ``zx_terms[k][s2_k] = z_k x*_k`` and
    ``zy_terms[k][s2_k][s1_k] = z_k y*_k`` (:func:`_by_sign`).
    """

    region: str
    z: tuple[float, ...]
    alpha: float
    beta: float
    u1: tuple[float, ...]
    u2: tuple[float, ...]
    zz: float  # z . z, reused by every bootstrap draw
    zx_terms: tuple[tuple[float, float, float], ...]
    zy_terms: tuple[tuple[float, tuple[float, float, float], tuple[float, float, float]], ...]


def fit_two_stage(
    region: str, y: Sequence[float], x: Sequence[float], z: Sequence[float]
) -> TwoStageFit:
    """Fit ``x = alpha z`` and ``y = beta x`` with instrument ``z``.

    The columns are one region's aligned, smoothed series (Mt P2O5 per
    year): ``y`` apparent DAP/MAP consumption, ``x`` total fertilizer
    consumption and ``z`` fertilizer use in application to crops.
    """
    if min(min(y), min(x), min(z)) <= 0:
        raise ValueError(f"series for {region}: all values must be positive")
    zz = _dot(z, z)
    zx = _dot(z, x)
    if zz == 0.0:
        raise CalibrationError(f"{region}: instrument series is all zero")
    if zx == 0.0:
        raise CalibrationError(f"{region}: degenerate first stage (z.x = 0)")
    alpha = zx / zz
    beta = _dot(z, y) / zx
    u1 = tuple(yk - beta * xk for yk, xk in zip(y, x))
    u2 = tuple(xk - alpha * zk for xk, zk in zip(x, z))
    zx_terms, zy_terms = [], []
    for zk, u1k, u2k in zip(z, u1, u2):
        plus, minus = alpha * zk + u2k, alpha * zk - u2k  # x*_k at s2 = 1 and -1
        zx_terms.append(_by_sign(zk * plus, zk * minus))
        zy = [_by_sign(zk * (beta * xk + u1k), zk * (beta * xk - u1k)) for xk in (plus, minus)]
        zy_terms.append(_by_sign(*zy))
    return TwoStageFit(region, tuple(z), alpha, beta, u1, u2, zz, tuple(zx_terms), tuple(zy_terms))


#: Rejected demand draws allowed before a replication's draw is an error.
MAX_REDRAWS = 100


def wild_bootstrap_demand(
    fit: TwoStageFit, z_scenario: float, rng: Stream, *, min_value: float
) -> tuple[float, int]:
    """Draw one scenario demand value (Mt) by wild residual bootstrap.

    ``fit`` is fitted once per run and reused by every replication.  A draw
    simulates both equations with independent Rademacher weights,
    re-estimates the coefficients on the simulated data and predicts demand at
    the scenario value of the instrument.  Draws that are not positive (or
    fall below ``min_value``, the smallest quantizable demand) are rejected
    and redrawn, at most :data:`MAX_REDRAWS` times; returns the draw and the
    number of rejections before it.
    """
    zx_terms, zy_terms = fit.zx_terms, fit.zy_terms
    p = len(zx_terms)
    for rejected in range(MAX_REDRAWS + 1):
        w = rng.signs(2 * p)  # the weights on u2, then those on u1
        # z . x* and z . y* of the simulated series, each summed in index order.
        zx_star = zy_star = 0.0
        for zx, zy, s2, s1 in zip(zx_terms, zy_terms, w, w[p:]):
            zx_star += zx[s2]
            zy_star += zy[s2][s1]
        if zx_star != 0.0:
            alpha_star = zx_star / fit.zz
            beta_star = zy_star / zx_star
            draw = beta_star * alpha_star * z_scenario
            if draw > 0.0 and draw >= min_value:
                return draw, rejected
    raise CalibrationError(
        f"{fit.region}: demand redraw budget exceeded "
        f"({MAX_REDRAWS + 1} rejections for one replication)"
    )


# ---------------------------------------------------------------------------
# Supply


def capacity_inputs(
    supply_by_year: Mapping[str, Sequence[float]],
    global_demand_by_year: Sequence[float],
    *,
    base: str,
) -> tuple[dict[str, float], list[float]]:
    """Supplier share estimates and the joint deviation pool from history.

    Shares are supplier-mean supply over the global-demand base (the observed
    mean for ``base="mean"``, the latest year for ``"latest"``); the pool
    collects every supplier's deviations from its own mean, jointly across
    suppliers.
    """
    demand = global_demand_by_year
    denom = demand[-1] if base == "latest" else sum(demand) / len(demand)
    shares: dict[str, float] = {}
    pool: list[float] = []
    for supplier, values in supply_by_year.items():
        mean = sum(values) / len(values)
        shares[supplier] = mean / denom
        pool.extend(v - mean for v in values)
    return shares, pool


def sample_capacity(
    global_demand_draw: float,
    share_estimates: Sequence[float],
    deviation_pool: Sequence[float],
    rng: Stream,
) -> tuple[int, ...]:
    """One capacity draw per supplier, in goods units (clamped at one unit)."""
    capacities = []
    draws = iter(rng.pairs(len(deviation_pool), len(share_estimates)))
    for share, k, sign in zip(share_estimates, draws, draws):  # a deviation and its sign each
        value = share * global_demand_draw + (deviation_pool[k] if sign else -deviation_pool[k])
        capacities.append(max(1, quantize(value, 1.0) if value > 0 else 0))
    return tuple(capacities)


# ---------------------------------------------------------------------------
# Trade and production costs


def real_share_changes(
    shares: Sequence[float], ref_shares: Sequence[float], reference: int
) -> tuple[float, ...]:
    """Each market's real share change against the reference year.

    A market's share is deflated by the reference market's share growth,
    then its reference-year share is subtracted; the reference market's own
    change is zero up to rounding.  The history's regressor and every draw's
    predicted cost shift read share changes through this one rule.
    """
    growth = shares[reference] / ref_shares[reference]
    return tuple([share / growth - ref for share, ref in zip(shares, ref_shares)])


class TradeCostFit(NamedTuple):
    """Relative trade costs and their regression on real market-share changes.

    ``base_costs`` holds each pair's reference relative cost, ``None`` on
    pairs closed to trade; ``ref_shares`` is each market's share of global
    demand in the reference year and ``reference`` the reference market's
    index.  ``v`` pools the history's real share changes, ``gamma`` is the
    slope of cost changes on them and ``residuals`` its residuals.  A draw
    resamples ``w*_k = gamma v_k + s_k r_k`` and reads ``vw_terms[k][s_k] =
    v_k w*_k`` (:func:`_by_sign`).
    """

    base_costs: tuple[tuple[float | None, ...], ...]
    ref_shares: tuple[float, ...]
    reference: int
    gamma: float
    residuals: tuple[float, ...]
    v: tuple[float, ...]
    vv: float  # v . v, reused by every bootstrap draw
    vw_terms: tuple[tuple[float, float, float], ...]
    open_pairs: int  # base costs that are not None


def fit_trade_costs(
    flows: Mapping[tuple[str, str, int], float],
    local_supply: Mapping[tuple[str, int], float],
    suppliers: Sequence[str],
    regions: Sequence[str],
    years: Sequence[int],
    reference_market: str,
    reference_year: int,
    *,
    theta: float,
) -> TradeCostFit:
    """Back out relative trade costs from observed flows and fit their shifts.

    For each year the market price proxy is the average local unit cost under
    the unit-price calibration applied to that year's totals; the cost value
    of an active flow is the price net of the flow's own inventory component,
    expressed relative to the reference market's cost level that year (so the
    reference market itself sits near zero, matching the entry-floor reading
    of costs).  A pair that is never active is closed to trade (its base cost
    is ``None``); a pair inactive in the reference year anchors at its mean
    relative cost over active years.  Each active flow outside the reference
    year pairs its cost change ``w`` against its base with its market's real
    share change ``v`` that year; ``gamma`` is the least-squares slope of
    ``w`` on ``v`` through the origin.  ``years`` holds every year of ``flows``,
    ``reference_year`` among them, and in each the reference market has local
    supply and receives a positive flow
    (:func:`~phosmarket.experiment.load_context` requires all three).
    """
    j0 = reference_market

    demand: dict[tuple[str, int], float] = {}
    imports: dict[tuple[str, int], float] = {}
    for region in regions:
        for year in years:
            into = sum(flows.get((s, region, year), 0.0) for s in suppliers)
            imports[(region, year)] = into
            demand[(region, year)] = local_supply.get((region, year), 0.0) + into

    # each total is positive: it holds the reference market's local supply
    total_demand = {year: sum(demand[(region, year)] for region in regions) for year in years}
    a_by_year = {year: theta / total for year, total in total_demand.items()}

    cost_value: dict[tuple[str, str, int], float] = {}
    for (supplier, region, year), flow in flows.items():
        if flow > 0:
            a = a_by_year[year]
            cost_value[(supplier, region, year)] = 1.0 - a * imports[(region, year)] - a * flow
    reference_level = {}
    for year in years:
        into_ref = [
            cost_value[(supplier, j0, year)]
            for supplier in suppliers
            if (supplier, j0, year) in cost_value
        ]
        reference_level[year] = sum(into_ref) / len(into_ref)
    rel = {
        key: value - reference_level[key[2]] for key, value in cost_value.items()
    }

    base: dict[tuple[str, str], float] = {}
    for supplier in suppliers:
        for region in regions:
            at_ref = rel.get((supplier, region, reference_year))
            if at_ref is not None:
                base[(supplier, region)] = at_ref
            else:
                active = [
                    rel[(supplier, region, year)]
                    for year in years
                    if (supplier, region, year) in rel
                ]
                if active:
                    base[(supplier, region)] = sum(active) / len(active)

    reference = regions.index(j0)
    ref_shares = tuple(
        demand[(region, reference_year)] / total_demand[reference_year] for region in regions
    )
    changes = {
        year: real_share_changes(
            [demand[(region, year)] / total_demand[year] for region in regions],
            ref_shares,
            reference,
        )
        for year in years
    }
    index = {region: j for j, region in enumerate(regions)}
    w: list[float] = []
    v: list[float] = []
    for (supplier, region, year), value in sorted(rel.items()):
        if year != reference_year:  # every active pair has a base
            w.append(value - base[(supplier, region)])
            v.append(changes[year][index[region]])

    vv = _dot(v, v)
    if vv == 0.0:
        raise CalibrationError("degenerate share-change regressor (v.v = 0)")
    gamma = _dot(v, w) / vv
    residuals = tuple(a - gamma * b for a, b in zip(w, v))
    return TradeCostFit(
        base_costs=tuple(
            tuple(base.get((supplier, region)) for region in regions)
            for supplier in suppliers
        ),
        ref_shares=ref_shares,
        reference=reference,
        gamma=gamma,
        residuals=residuals,
        v=tuple(v),
        vv=vv,
        vw_terms=tuple(
            _by_sign(vk * (gamma * vk + r), vk * (gamma * vk - r)) for vk, r in zip(v, residuals)
        ),
        open_pairs=len(base),
    )


def sample_trade_costs(
    fit: TradeCostFit, demands: Sequence[int], rng: Stream, *, scale: int
) -> tuple[tuple[int | None, ...], ...]:
    """One trade-cost table draw in minor units; closed pairs stay ``None``.

    A pair is open exactly where its base cost is not ``None``.  The slope is
    re-estimated on a wild-bootstrap resample of the fitted regression, then
    every open cell receives the predicted shift for its market's real share
    change under the drawn ``demands`` plus a sign-flipped resampled
    residual, clamped at zero cost.
    """
    total = sum(demands)
    changes = real_share_changes([d / total for d in demands], fit.ref_shares, fit.reference)
    residuals = fit.residuals
    vw_star = 0.0  # v . w*, summed in index order
    for terms, sign in zip(fit.vw_terms, rng.signs(len(residuals))):
        vw_star += terms[sign]
    gamma_star = vw_star / fit.vv
    shifts = [gamma_star * change for change in changes]

    draws = rng.pairs(len(residuals), fit.open_pairs)
    pairs = zip(draws[::2], draws[1::2])  # a residual and its sign per open pair
    noise = iter([residuals[k] if sign else -residuals[k] for k, sign in pairs])
    rows: list[tuple[int | None, ...]] = []
    for base_row in fit.base_costs:
        row: list[int | None] = []
        for base, shift in zip(base_row, shifts):
            if base is None:
                row.append(None)
            else:
                value = base + shift + next(noise)
                # max(0, to_minor(value, scale)): floor and int agree above 0
                row.append(int(value * scale + 0.5) if value > 0 else 0)
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Local cost calibration


def calibrate_local_costs(
    demands: Sequence[int], *, theta: float, scale: int
) -> tuple[int, tuple[int, ...]]:
    """Inventory constant and local unit costs meeting the unit-price rule.

    With unit market price equal to one relative unit, the inventory constant
    is ``theta`` over global demand (rounded to the money grid) and each
    market's unit cost absorbs the remainder so that the average local unit
    cost at full demand is exactly one: ``a * d_j + c_oj == scale``.  Only
    ``theta == 0`` gives flat local marginal costs (``a == 0``); a positive
    ``theta`` that rounds to ``a == 0`` on the money grid is an error.
    """
    if not demands or min(demands) < 1:
        raise ValueError("demands must be >= 1 unit")
    total = sum(demands)
    a = to_minor(theta / total, scale)
    if theta > 0 and a == 0:
        raise CalibrationError(
            f"theta={theta} over {total} demand units rounds the inventory "
            f"constant to 0 at money_scale {scale} (flat local costs); raise "
            "money_scale or theta, or coarsen the goods unit"
        )
    c_o = tuple([scale - a * d for d in demands])
    if any(c <= 0 for c in c_o):
        raise CalibrationError(
            f"theta={theta} leaves a nonpositive local cost; lower theta "
            "or coarsen the goods unit"
        )
    return a, c_o
