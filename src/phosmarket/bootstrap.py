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
dot products sum sequentially in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .core import quantize, to_minor
from .rng import SeedSequence, Stream


class CalibrationError(ValueError):
    """A sampler or calibration rule cannot produce a valid draw."""


def replication_streams(
    master_seed: int, replication: int, n_regions: int
) -> tuple[list[Stream], Stream, Stream]:
    """Independent per-purpose RNG streams for one bootstrap replication."""
    children = SeedSequence([master_seed, replication]).spawn(n_regions + 2)
    demand = [Stream(ss) for ss in children[:n_regions]]
    return demand, Stream(children[n_regions]), Stream(children[n_regions + 1])


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
    if len(series) < 3:
        raise ValueError("span-3 smoothing needs at least three observations")
    return [
        (series[k - 1] + series[k] + series[k + 1]) / 3
        for k in range(1, len(series) - 1)
    ]


@dataclass(frozen=True)
class RegionSeries:
    """Aligned smoothed series for one region (Mt P2O5 per year).

    ``y`` is apparent DAP/MAP consumption, ``x`` total fertilizer consumption,
    ``z`` fertilizer use in application to crops.
    """

    region: str
    y: tuple[float, ...]
    x: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self) -> None:
        p = len(self.y)
        if p < 3 or len(self.x) != p or len(self.z) != p:
            raise ValueError(f"series for {self.region}: equal lengths >= 3 required")
        if min(min(self.y), min(self.x), min(self.z)) <= 0:
            raise ValueError(f"series for {self.region}: all values must be positive")

    @staticmethod
    def from_raw(
        region: str, y: Sequence[float], x: Sequence[float], z: Sequence[float]
    ) -> RegionSeries:
        """Build a region series by span-3 smoothing of the raw observations."""
        return RegionSeries(
            region=region,
            y=tuple(smooth_cma3(y)),
            x=tuple(smooth_cma3(x)),
            z=tuple(smooth_cma3(z)),
        )


class TwoStageFit(NamedTuple):
    """Instrumental-variables fit of the two demand equations (no intercepts).

    It carries the region and its smoothed instrument series ``z``, the only
    parts of the series that a bootstrap draw reads.
    """

    region: str
    z: tuple[float, ...]
    alpha: float
    beta: float
    u1: tuple[float, ...]
    u2: tuple[float, ...]
    zz: float  # z . z, reused by every bootstrap draw


def fit_two_stage(series: RegionSeries) -> TwoStageFit:
    """Fit ``x = alpha z`` and ``y = beta x`` with instrument ``z``."""
    z, x, y = series.z, series.x, series.y
    zz = _dot(z, z)
    zx = _dot(z, x)
    if zz == 0.0:
        raise CalibrationError(f"{series.region}: instrument series is all zero")
    if zx == 0.0:
        raise CalibrationError(f"{series.region}: degenerate first stage (z.x = 0)")
    alpha = zx / zz
    beta = _dot(z, y) / zx
    return TwoStageFit(
        region=series.region,
        z=z,
        alpha=alpha,
        beta=beta,
        u1=tuple(yk - beta * xk for yk, xk in zip(y, x)),
        u2=tuple(xk - alpha * zk for xk, zk in zip(x, z)),
        zz=zz,
    )


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
    z, u1, u2 = fit.z, fit.u1, fit.u2
    alpha, beta, zz = fit.alpha, fit.beta, fit.zz
    p = len(z)
    for rejected in range(MAX_REDRAWS + 1):
        w2 = rng.signs(p)
        w1 = rng.signs(p)
        # z . x* and z . y* of the simulated series, each summed in index order.
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
    if base == "mean":
        denom = sum(global_demand_by_year) / len(global_demand_by_year)
    elif base == "latest":
        denom = global_demand_by_year[-1]
    else:
        raise ValueError("base must be 'mean' or 'latest'")
    if denom <= 0:
        raise ValueError("global demand base must be positive")
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
    if not deviation_pool:
        raise CalibrationError("empty capacity deviation pool")
    if any(share < 0 for share in share_estimates):
        raise ValueError("share estimates must be nonnegative")
    capacities = []
    for share in share_estimates:
        delta = deviation_pool[rng.below(len(deviation_pool))]
        sign = rng.below(2) * 2 - 1
        value = share * global_demand_draw + sign * delta
        capacities.append(max(1, quantize(value, 1.0) if value > 0 else 0))
    return tuple(capacities)


# ---------------------------------------------------------------------------
# Trade and production costs


class TradeCostInversion(NamedTuple):
    """Relative-cost regression inputs recovered from observed flows.

    ``w`` pools changes in relative trade costs against the reference year and
    ``v`` the matching changes in real (reference-adjusted) market shares.
    ``base_costs`` holds each open pair's reference relative cost and
    ``ref_shares`` each market's share of global demand in the reference year.
    """

    w: tuple[float, ...]
    v: tuple[float, ...]
    base_costs: tuple[tuple[float | None, ...], ...]
    ref_shares: tuple[float, ...]


def infer_relative_trade_costs(
    flows: Mapping[tuple[str, str, int], float],
    local_supply: Mapping[tuple[str, int], float],
    suppliers: Sequence[str],
    regions: Sequence[str],
    years: Sequence[int],
    reference_market: str,
    reference_year: int,
    *,
    theta: float,
) -> TradeCostInversion:
    """Back out relative trade costs and share changes from observed flows.

    For each year the market price proxy is the average local unit cost under
    the unit-price calibration applied to that year's totals; the cost value
    of an active flow is the price net of the flow's own inventory component,
    expressed relative to the reference market's cost level that year (so the
    reference market itself sits near zero, matching the entry-floor reading
    of costs).  A pair that is never active is closed to trade (its base cost
    is ``None``); a pair inactive in the reference year anchors at its mean
    relative cost over active years.
    """
    if reference_market not in regions:
        raise ValueError(f"unknown reference market {reference_market!r}")
    if reference_year not in years:
        raise ValueError(f"reference year {reference_year} outside history")
    j0 = reference_market

    demand: dict[tuple[str, int], float] = {}
    imports: dict[tuple[str, int], float] = {}
    for region in regions:
        for year in years:
            into = sum(flows.get((s, region, year), 0.0) for s in suppliers)
            imports[(region, year)] = into
            demand[(region, year)] = local_supply.get((region, year), 0.0) + into
    for year in years:
        if local_supply.get((j0, year), 0.0) <= 0:
            raise CalibrationError(
                f"reference market {j0!r} has no local supply in {year}"
            )

    a_by_year = {}
    for year in years:
        total = sum(demand[(region, year)] for region in regions)
        if total <= 0:
            raise CalibrationError(f"no demand recorded in {year}")
        a_by_year[year] = theta / total
    price = {
        (region, year): 1.0 - a_by_year[year] * imports[(region, year)]
        for region in regions
        for year in years
    }

    cost_value: dict[tuple[str, str, int], float] = {}
    for (supplier, region, year), flow in flows.items():
        if flow > 0 and year in a_by_year:
            cost_value[(supplier, region, year)] = (
                price[(region, year)] - a_by_year[year] * flow
            )
    reference_level = {}
    for year in years:
        into_ref = [
            cost_value[(supplier, j0, year)]
            for supplier in suppliers
            if (supplier, j0, year) in cost_value
        ]
        if not into_ref:
            raise CalibrationError(
                f"reference market {j0!r} receives no trade flow in {year}"
            )
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

    share = {
        (region, year): demand[(region, year)]
        / sum(demand[(r, year)] for r in regions)
        for region in regions
        for year in years
    }
    w: list[float] = []
    v: list[float] = []
    for (supplier, region, year), value in sorted(rel.items()):
        if year == reference_year or (supplier, region) not in base:
            continue
        growth = share[(j0, year)] / share[(j0, reference_year)]
        real_share = share[(region, year)] / growth
        w.append(value - base[(supplier, region)])
        v.append(real_share - share[(region, reference_year)])

    base_rows = tuple(
        tuple(base.get((supplier, region)) for region in regions)
        for supplier in suppliers
    )
    return TradeCostInversion(
        w=tuple(w),
        v=tuple(v),
        base_costs=base_rows,
        ref_shares=tuple(share[(region, reference_year)] for region in regions),
    )


class TradeCostFit(NamedTuple):
    """Regression of trade-cost changes on real market-share changes."""

    gamma: float
    residuals: tuple[float, ...]
    v: tuple[float, ...]
    vv: float  # v . v, reused by every bootstrap draw


def fit_trade_cost_regression(w: Sequence[float], v: Sequence[float]) -> TradeCostFit:
    """Ordinary least squares of ``w`` on ``v`` through the origin."""
    if len(w) != len(v):
        raise ValueError("w and v must have equal length")
    vv = _dot(v, v)
    if vv == 0.0:
        raise CalibrationError("degenerate share-change regressor (v.v = 0)")
    gamma = _dot(v, w) / vv
    residuals = tuple(a - gamma * b for a, b in zip(w, v))
    return TradeCostFit(gamma=gamma, residuals=residuals, v=tuple(v), vv=vv)


def sample_trade_costs(
    base_costs: Sequence[Sequence[float | None]],
    scenario_share_changes: Sequence[float],
    fit: TradeCostFit,
    rng: Stream,
    *,
    scale: int,
) -> tuple[tuple[int | None, ...], ...]:
    """One trade-cost table draw in minor units; closed pairs stay ``None``.

    A pair is open exactly where its base cost is not ``None``.  The slope is
    re-estimated on a wild-bootstrap resample of the fitted regression, then
    every open cell receives the predicted shift for its market's scenario
    share change plus a sign-flipped resampled residual, clamped at zero cost.
    """
    v, residuals = fit.v, fit.residuals
    signs = rng.signs(len(residuals))
    w_star = [fit.gamma * vk + sign * r for vk, sign, r in zip(v, signs, residuals)]
    gamma_star = _dot(v, w_star) / fit.vv

    rows: list[tuple[int | None, ...]] = []
    for base_row in base_costs:
        row: list[int | None] = []
        for j, base in enumerate(base_row):
            if base is None:
                row.append(None)
                continue
            eps = residuals[rng.below(len(residuals))]
            noise = (rng.below(2) * 2 - 1) * eps
            value = base + gamma_star * scenario_share_changes[j] + noise
            row.append(max(0, to_minor(value, scale)))
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
    if any(d < 1 for d in demands):
        raise ValueError("demands must be >= 1 unit")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    total = sum(demands)
    a = to_minor(theta / total, scale)
    if theta > 0 and a == 0:
        raise CalibrationError(
            f"theta={theta} over {total} demand units rounds the inventory "
            f"constant to 0 at money_scale {scale} (flat local costs); raise "
            "money_scale or theta, or coarsen the goods unit"
        )
    c_o = tuple(scale - a * d for d in demands)
    if any(c <= 0 for c in c_o):
        raise CalibrationError(
            f"theta={theta} leaves a nonpositive local cost; lower theta "
            "or coarsen the goods unit"
        )
    return a, c_o
