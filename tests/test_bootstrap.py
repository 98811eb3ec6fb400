"""Smoothing, regression fits, wild-bootstrap samplers and cost calibration."""

import numpy as np
import pytest

from phosmarket.bootstrap import (
    CalibrationError,
    RegionSeries,
    calibrate_local_costs,
    capacity_inputs,
    fit_trade_cost_regression,
    fit_two_stage,
    infer_relative_trade_costs,
    replication_streams,
    sample_capacity,
    sample_trade_costs,
    smooth_cma3,
    wild_bootstrap_demand,
)
from phosmarket.rng import Stream


# ---------------------------------------------------------------------------
# Smoothing and series


def test_cma3_is_invariant_on_constants():
    assert smooth_cma3([4.0, 4.0, 4.0, 4.0]) == [4.0, 4.0]


def test_cma3_linear_ramp():
    assert smooth_cma3([1, 2, 3, 4, 5]) == [2.0, 3.0, 4.0]


def test_cma3_rejects_short_series():
    with pytest.raises(ValueError):
        smooth_cma3([1.0, 2.0])


def test_region_series_validation():
    with pytest.raises(ValueError):
        RegionSeries("r", y=(1.0, 1.0), x=(1.0, 1.0), z=(1.0, 1.0))
    with pytest.raises(ValueError):
        RegionSeries("r", y=(1.0, 0.0, 1.0), x=(1.0, 1.0, 1.0), z=(1.0, 1.0, 1.0))
    raw = RegionSeries.from_raw("r", [1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [1, 2, 3, 4, 5])
    assert raw.y == (2.0, 3.0, 4.0)


# ---------------------------------------------------------------------------
# Two-stage fit and demand bootstrap


def exact_series():
    # y = 2x, x = 3z: noiseless identification
    z = (1.0, 2.0, 3.0)
    x = tuple(3 * v for v in z)
    y = tuple(2 * v for v in x)
    return RegionSeries("exact", y=y, x=x, z=z)


def test_fit_two_stage_noiseless():
    fit = fit_two_stage(exact_series())
    assert fit.alpha == pytest.approx(3.0)
    assert fit.beta == pytest.approx(2.0)
    assert all(abs(u) < 1e-12 for u in fit.u1)
    assert all(abs(u) < 1e-12 for u in fit.u2)


def test_fit_two_stage_closed_form():
    series = RegionSeries("cf", y=(3.0, 6.0, 4.5), x=(2.0, 4.0, 3.0), z=(1.0, 2.0, 1.5))
    fit = fit_two_stage(series)
    assert fit.alpha == pytest.approx(2.0)
    assert fit.beta == pytest.approx(1.5)


def test_fit_two_stage_degenerate_instrument():
    series = exact_series()
    broken = RegionSeries("z0", y=series.y, x=series.x, z=(1e-300,) * 3)
    with pytest.raises(CalibrationError):
        fit_two_stage(broken)


def wild_bootstrap_draws(fit, z_scenario, B, rng):
    """``B`` successive demand draws from one stream and their total rejections."""
    pairs = [wild_bootstrap_demand(fit, z_scenario, rng, min_value=0.0) for _ in range(B)]
    return [draw for draw, _ in pairs], sum(rejected for _, rejected in pairs)


def test_wild_bootstrap_degenerates_to_point_prediction():
    rng = Stream.from_seed(1)
    draws, rejected = wild_bootstrap_draws(fit_two_stage(exact_series()), 4.0, 50, rng)
    assert rejected == 0
    assert all(d == pytest.approx(6.0 * 4.0) for d in draws)


def test_wild_bootstrap_zero_scenario_exhausts_redraws():
    rng = Stream.from_seed(2)
    with pytest.raises(CalibrationError):
        wild_bootstrap_demand(fit_two_stage(exact_series()), 0.0, rng, min_value=0.0)


def noisy_series():
    rng = np.random.default_rng(42)
    z = np.linspace(1.0, 2.0, 9)
    x = 3.0 * z + rng.normal(0, 0.05, 9)
    y = 2.0 * x + rng.normal(0, 0.05, 9)
    return RegionSeries("noisy", y=tuple(y), x=tuple(x), z=tuple(z))


def test_wild_bootstrap_centering():
    series = noisy_series()
    fit = fit_two_stage(series)
    point = fit.beta * fit.alpha * 2.5
    draws, _ = wild_bootstrap_draws(fit, 2.5, 1000, Stream.from_seed(7))
    draws = np.asarray(draws)
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - point) < 3 * se


def numpy_wild_bootstrap(series, z_scenario, B, rng):
    """The wild bootstrap on NumPy arrays, drawing from a NumPy generator."""
    z, x, y = (np.asarray(v) for v in (series.z, series.x, series.y))
    alpha = (z @ x) / (z @ z)
    beta = (z @ y) / (z @ x)
    u1, u2 = y - beta * x, x - alpha * z
    draws = []
    for _ in range(B):
        w2 = rng.integers(0, 2, size=len(z)) * 2 - 1
        w1 = rng.integers(0, 2, size=len(z)) * 2 - 1
        x_star = alpha * z + w2 * u2
        y_star = beta * x_star + w1 * u1
        zx_star = z @ x_star
        draws.append((z @ y_star) / zx_star * (zx_star / (z @ z)) * z_scenario)
    return alpha, beta, draws


def test_wild_bootstrap_matches_numpy_reference():
    # Sequential dot products may sum in another order than BLAS, so the
    # floats agree to a few ulps, not bit for bit; the signs must be equal.
    series = noisy_series()
    fit = fit_two_stage(series)
    alpha, beta, expected = numpy_wild_bootstrap(series, 2.5, 200, np.random.default_rng(11))
    draws, rejected = wild_bootstrap_draws(fit, 2.5, 200, Stream.from_seed(11))
    assert rejected == 0
    assert (fit.alpha, fit.beta) == pytest.approx((alpha, beta), rel=1e-14, abs=0)
    assert draws == pytest.approx(expected, rel=1e-13, abs=0)


def test_replication_streams_are_deterministic_and_distinct():
    d1, c1, t1 = replication_streams(99, 5, 3)
    d2, c2, t2 = replication_streams(99, 5, 3)
    assert [g.below(1000) for g in d1] == [g.below(1000) for g in d2]
    assert c1.below(1000) == c2.below(1000)
    d3, _, _ = replication_streams(99, 6, 3)
    seq1 = [g.below(10_000) for g in replication_streams(99, 5, 3)[0]]
    seq3 = [g.below(10_000) for g in d3]
    assert seq1 != seq3


# ---------------------------------------------------------------------------
# Capacity sampling


def test_capacity_inputs_shares_and_pool():
    shares, pool = capacity_inputs(
        {"a": [10.0, 12.0], "b": [5.0, 5.0]}, [100.0, 120.0], base="mean"
    )
    assert shares["a"] == pytest.approx(11.0 / 110.0)
    assert shares["b"] == pytest.approx(5.0 / 110.0)
    assert sorted(pool) == [-1.0, 0.0, 0.0, 1.0]
    latest, _ = capacity_inputs({"a": [10.0, 12.0]}, [100.0, 120.0], base="latest")
    assert latest["a"] == pytest.approx(11.0 / 120.0)


def test_sample_capacity_requires_pool():
    with pytest.raises(CalibrationError):
        sample_capacity(100.0, [0.1], [], Stream.from_seed(0))


def test_sample_capacity_zero_variance_pool():
    rng = Stream.from_seed(0)
    caps = sample_capacity(1000.0, [0.10, 0.25], [0.0], rng)
    assert caps == (100, 250)


def test_sample_capacity_two_sided_range():
    rng = Stream.from_seed(0)
    values = {
        sample_capacity(1000.0, [0.10], [20.0], rng)[0] for _ in range(50)
    }
    assert values == {80, 120}


def test_sample_capacity_clamps_to_one_unit():
    rng = Stream.from_seed(0)
    caps = {sample_capacity(10.0, [0.1], [50.0], rng)[0] for _ in range(20)}
    assert min(caps) == 1


# ---------------------------------------------------------------------------
# Trade cost inversion and regression


def two_year_history():
    suppliers = ["A", "B"]
    regions = ["R1", "R2"]
    years = [1, 2]
    flows = {
        ("A", "R1", 1): 10.0,
        ("A", "R1", 2): 12.0,
        ("A", "R2", 1): 4.0,
        ("A", "R2", 2): 4.0,
        ("B", "R1", 1): 6.0,
        ("B", "R1", 2): 6.0,
    }
    local = {
        ("R1", 1): 30.0,
        ("R1", 2): 32.0,
        ("R2", 1): 10.0,
        ("R2", 2): 12.0,
    }
    return flows, local, suppliers, regions, years


def test_inversion_two_year_fixture_recomputed_by_hand():
    flows, local, suppliers, regions, years = two_year_history()
    inv = infer_relative_trade_costs(
        flows, local, suppliers, regions, years, "R1", 1, theta=0.5
    )

    # Spreadsheet-style recomputation, spelled out step by step.
    demand = {
        ("R1", 1): 46.0, ("R1", 2): 50.0, ("R2", 1): 14.0, ("R2", 2): 16.0,
    }
    a1, a2 = 0.5 / 60.0, 0.5 / 66.0
    price = {
        ("R1", 1): 1 - a1 * 16, ("R1", 2): 1 - a2 * 18,
        ("R2", 1): 1 - a1 * 4, ("R2", 2): 1 - a2 * 4,
    }
    tau = {
        ("A", "R1", 1): price[("R1", 1)] - a1 * 10,
        ("A", "R1", 2): price[("R1", 2)] - a2 * 12,
        ("B", "R1", 1): price[("R1", 1)] - a1 * 6,
        ("B", "R1", 2): price[("R1", 2)] - a2 * 6,
        ("A", "R2", 1): price[("R2", 1)] - a1 * 4,
        ("A", "R2", 2): price[("R2", 2)] - a2 * 4,
    }
    level = {
        1: (tau[("A", "R1", 1)] + tau[("B", "R1", 1)]) / 2,
        2: (tau[("A", "R1", 2)] + tau[("B", "R1", 2)]) / 2,
    }
    rho = {key: value - level[key[2]] for key, value in tau.items()}
    expected_w = [
        rho[("A", "R1", 2)] - rho[("A", "R1", 1)],
        rho[("A", "R2", 2)] - rho[("A", "R2", 1)],
        rho[("B", "R1", 2)] - rho[("B", "R1", 1)],
    ]
    share = {key: demand[key] / (demand[("R1", key[1])] + demand[("R2", key[1])])
             for key in demand}
    growth = share[("R1", 2)] / share[("R1", 1)]
    expected_v = [
        share[("R1", 2)] / growth - share[("R1", 1)],
        share[("R2", 2)] / growth - share[("R2", 1)],
        share[("R1", 2)] / growth - share[("R1", 1)],
    ]

    assert list(inv.w) == pytest.approx(expected_w)
    assert list(inv.v) == pytest.approx(expected_v)
    assert expected_v[0] == pytest.approx(0.0)  # reference market by construction
    assert expected_v[1] == pytest.approx(0.012)
    # base costs anchor at the reference year; B->R2 is masked
    assert inv.base_costs[0][0] == pytest.approx(rho[("A", "R1", 1)])
    assert inv.base_costs[1][1] is None
    assert inv.ref_shares == pytest.approx((46 / 60, 14 / 60))


def test_inversion_single_year_yields_empty_changes():
    flows, local, suppliers, regions, _ = two_year_history()
    flows = {k: v for k, v in flows.items() if k[2] == 1}
    local = {k: v for k, v in local.items() if k[1] == 1}
    inv = infer_relative_trade_costs(
        flows, local, suppliers, regions, [1], "R1", 1, theta=0.5
    )
    assert inv.w == ()
    assert inv.v == ()


def test_inversion_uniform_growth_zeroes_share_changes():
    suppliers = ["A"]
    regions = ["R1", "R2"]
    flows = {
        ("A", "R1", 1): 10.0,
        ("A", "R1", 2): 11.0,
        ("A", "R2", 1): 5.0,
        ("A", "R2", 2): 5.5,
    }
    local = {
        ("R1", 1): 30.0,
        ("R1", 2): 33.0,
        ("R2", 1): 15.0,
        ("R2", 2): 16.5,
    }
    inv = infer_relative_trade_costs(
        flows, local, suppliers, regions, [1, 2], "R1", 1, theta=0.5
    )
    assert list(inv.v) == pytest.approx([0.0, 0.0], abs=1e-12)


def test_inversion_requires_active_reference_market():
    suppliers = ["A"]
    regions = ["R1", "R2"]
    flows = {("A", "R2", 1): 5.0}
    local = {("R1", 1): 30.0, ("R2", 1): 15.0}
    with pytest.raises(CalibrationError):
        infer_relative_trade_costs(flows, local, suppliers, regions, [1], "R1", 1, theta=0.5)


def test_trade_cost_regression_closed_forms():
    fit = fit_trade_cost_regression([-2.0, -4.0], [1.0, 2.0])
    assert fit.gamma == pytest.approx(-2.0)
    assert fit.residuals == pytest.approx((0.0, 0.0))

    fit = fit_trade_cost_regression([-1.0, 1.0], [1.0, -1.0])
    assert fit.gamma == pytest.approx(-1.0)

    with pytest.raises(CalibrationError):
        fit_trade_cost_regression([1.0], [0.0])


def test_sample_trade_costs_identity_and_mask():
    fit = fit_trade_cost_regression([-2.0, -4.0], [1.0, 2.0])  # zero residuals
    base = ((0.10, None), (0.05, 0.08))
    rng = Stream.from_seed(0)
    draw = sample_trade_costs(base, (0.0, 0.0), fit, rng, scale=100)
    assert draw == ((10, None), (5, 8))


def test_sample_trade_costs_negative_slope_cuts_costs():
    fit = fit_trade_cost_regression([-2.0, -4.0], [1.0, 2.0])
    base = ((0.10,),)
    rng = Stream.from_seed(0)
    draw = sample_trade_costs(base, (0.02,), fit, rng, scale=100)
    assert draw[0][0] == 6  # 0.10 - 2.0 * 0.02


def test_sample_trade_costs_clamps_at_zero():
    fit = fit_trade_cost_regression([-2.0, -4.0], [1.0, 2.0])
    rng = Stream.from_seed(0)
    draw = sample_trade_costs(((0.01,),), (0.05,), fit, rng, scale=100)
    assert draw[0][0] == 0


# ---------------------------------------------------------------------------
# Local cost calibration


def test_calibrate_flat_costs_when_theta_zero():
    a, c_o = calibrate_local_costs([10, 30], theta=0.0, scale=100)
    assert a == 0
    assert c_o == (100, 100)


def test_calibrate_rejects_inventory_constant_rounded_to_zero():
    # 0.5 / 120 units is 0.42 minor units at scale 100, which rounds to 0:
    # a positive theta must not silently give flat local costs.
    with pytest.raises(CalibrationError, match="rounds the inventory constant to 0"):
        calibrate_local_costs([60, 60], theta=0.5, scale=100)
    assert calibrate_local_costs([60, 60], theta=0.0, scale=100) == (0, (100, 100))
    assert calibrate_local_costs([60, 60], theta=0.5, scale=1000) == (4, (760, 760))


def test_calibrate_matches_worked_example():
    a, c_o = calibrate_local_costs([20, 80], theta=0.5, scale=1000)
    assert a == 5  # 0.005 relative units
    assert c_o[0] == 900  # 0.90 relative units
    assert a * 20 + c_o[0] == 1000


def test_calibrate_rejects_excessive_theta():
    with pytest.raises(CalibrationError):
        calibrate_local_costs([100], theta=1.5, scale=100)


def test_calibrate_identity_and_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        demands = [int(rng.integers(1, 40)) for _ in range(4)]
        a, c_o = calibrate_local_costs(demands, theta=1.0, scale=100)
        for d, c in zip(demands, c_o):
            assert a * d + c == 100
        if a > 0:
            for (d1, c1), (d2, c2) in zip(
                sorted(zip(demands, c_o)), sorted(zip(demands, c_o))[1:]
            ):
                assert (d2 - d1 == 0) == (c1 == c2)
                assert d2 - d1 == 0 or c2 < c1
