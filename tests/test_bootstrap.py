"""Smoothing, regression fits, wild-bootstrap samplers and cost calibration."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from builders import seeded_stream
from oracle import demand_draw_loop, draw_share_changes, history_share_change, trade_cost_loop
from phosmarket.bootstrap import (
    CalibrationError,
    TradeCostFit,
    calibrate_local_costs,
    capacity_inputs,
    fit_trade_costs,
    fit_two_stage,
    real_share_changes,
    replication_streams,
    sample_capacity,
    sample_trade_costs,
    smooth_cma3,
    wild_bootstrap_demand,
)
from phosmarket.rng import stream_seeds


# ---------------------------------------------------------------------------
# Smoothing and series


def test_cma3_is_invariant_on_constants():
    assert smooth_cma3([4.0, 4.0, 4.0, 4.0]) == [4.0, 4.0]


def test_cma3_linear_ramp():
    assert smooth_cma3([1, 2, 3, 4, 5]) == [2.0, 3.0, 4.0]


def test_fit_two_stage_validates_series():
    with pytest.raises(ValueError, match="all values must be positive"):
        fit_two_stage("r", (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# Two-stage fit and demand bootstrap


def exact_series():
    # fit_two_stage's arguments for y = 2x, x = 3z: noiseless identification
    z = (1.0, 2.0, 3.0)
    x = tuple(3 * v for v in z)
    y = tuple(2 * v for v in x)
    return "exact", y, x, z


def test_fit_two_stage_noiseless():
    fit = fit_two_stage(*exact_series())
    assert fit.alpha == pytest.approx(3.0)
    assert fit.beta == pytest.approx(2.0)
    assert all(abs(u) < 1e-12 for u in fit.u1)
    assert all(abs(u) < 1e-12 for u in fit.u2)


def test_fit_two_stage_closed_form():
    fit = fit_two_stage("cf", (3.0, 6.0, 4.5), (2.0, 4.0, 3.0), (1.0, 2.0, 1.5))
    assert fit.alpha == pytest.approx(2.0)
    assert fit.beta == pytest.approx(1.5)


def test_fit_two_stage_degenerate_instrument():
    _, y, x, _ = exact_series()
    with pytest.raises(CalibrationError):
        fit_two_stage("z0", y, x, (1e-300,) * 3)


def wild_bootstrap_draws(fit, z_scenario, B, rng):
    """``B`` successive demand draws from one stream and their total rejections."""
    pairs = [wild_bootstrap_demand(fit, z_scenario, rng, min_value=0.0) for _ in range(B)]
    return [draw for draw, _ in pairs], sum(rejected for _, rejected in pairs)


def test_wild_bootstrap_degenerates_to_point_prediction():
    rng = seeded_stream(1)
    draws, rejected = wild_bootstrap_draws(fit_two_stage(*exact_series()), 4.0, 50, rng)
    assert rejected == 0
    assert all(d == pytest.approx(6.0 * 4.0) for d in draws)


def test_wild_bootstrap_zero_scenario_exhausts_redraws():
    rng = seeded_stream(2)
    with pytest.raises(CalibrationError):
        wild_bootstrap_demand(fit_two_stage(*exact_series()), 0.0, rng, min_value=0.0)


def noisy_series():
    rng = np.random.default_rng(42)
    z = np.linspace(1.0, 2.0, 9)
    x = 3.0 * z + rng.normal(0, 0.05, 9)
    y = 2.0 * x + rng.normal(0, 0.05, 9)
    return "noisy", tuple(y), tuple(x), tuple(z)


def test_wild_bootstrap_centering():
    series = noisy_series()
    fit = fit_two_stage(*series)
    point = fit.beta * fit.alpha * 2.5
    draws, _ = wild_bootstrap_draws(fit, 2.5, 1000, seeded_stream(7))
    draws = np.asarray(draws)
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - point) < 3 * se


def numpy_wild_bootstrap(series, z_scenario, B, rng):
    """The wild bootstrap on NumPy arrays, drawing from a NumPy generator."""
    y, x, z = (np.asarray(v) for v in series[1:])
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
    fit = fit_two_stage(*series)
    alpha, beta, expected = numpy_wild_bootstrap(series, 2.5, 200, np.random.default_rng(11))
    draws, rejected = wild_bootstrap_draws(fit, 2.5, 200, seeded_stream(11))
    assert rejected == 0
    assert (fit.alpha, fit.beta) == pytest.approx((alpha, beta), rel=1e-14, abs=0)
    assert draws == pytest.approx(expected, rel=1e-13, abs=0)


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 12),
    noise=st.floats(0.01, 3.0),
    z_scenario=st.floats(-1.0, 5.0),
)
@example(seed=5, p=6, noise=1.0, z_scenario=2.0)  # 15 redraws in 10 draws
def test_demand_draws_equal_the_loop_that_simulates_each_series_value(seed, p, noise, z_scenario):
    # The fit's per-sign terms are the loop's products for either sign, bit
    # for bit, and so are the draws, rejections and the stream state left.
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.5, 2.0, p)
    x = 3.0 * z + rng.normal(0.0, noise, p)
    y = 2.0 * x + rng.normal(0.0, noise, p)
    assume(min(x) > 0 and min(y) > 0)
    fit = fit_two_stage("r", tuple(y.tolist()), tuple(x.tolist()), tuple(z.tolist()))
    for k, (zk, u1k, u2k) in enumerate(zip(fit.z, fit.u1, fit.u2)):
        for s2 in (1, -1):
            xk = fit.alpha * zk + s2 * u2k
            assert fit.zx_terms[k][s2] == zk * xk
            for s1 in (1, -1):
                assert fit.zy_terms[k][s2][s1] == zk * (fit.beta * xk + s1 * u1k)
    # draws below the point prediction are redrawn
    min_value = fit.alpha * fit.beta * z_scenario
    ours, theirs = seeded_stream(seed), seeded_stream(seed)
    for _ in range(10):
        try:
            expected = demand_draw_loop(fit, z_scenario, theirs, min_value=min_value)
        except CalibrationError:
            with pytest.raises(CalibrationError, match="redraw budget exceeded"):
                wild_bootstrap_demand(fit, z_scenario, ours, min_value=min_value)
            break
        assert wild_bootstrap_demand(fit, z_scenario, ours, min_value=min_value) == expected
    assert (ours._state, ours._high) == (theirs._state, theirs._high)


def random_history(rng, m, n, years=3):
    """Flows and local supply in which every supplier serves region 0 each year."""
    flows = {}
    for i in range(m):
        for j in range(n):
            if j == 0 or rng.random() < 0.7:
                for year in range(years):
                    if j == 0 or rng.random() < 0.8:
                        flows[(f"s{i}", f"r{j}", year)] = float(rng.uniform(1.0, 50.0))
    local = {(f"r{j}", year): float(rng.uniform(5.0, 80.0)) for j in range(n) for year in range(years)}
    suppliers, regions = [f"s{i}" for i in range(m)], [f"r{j}" for j in range(n)]
    return flows, local, suppliers, regions, list(range(years))


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), n=st.integers(2, 5))
def test_trade_cost_draws_equal_the_loop_that_resamples_each_cost_change(seed, m, n):
    rng = np.random.default_rng(seed)
    flows, local, suppliers, regions, years = random_history(rng, m, n)
    try:
        fit = fit_trade_costs(flows, local, suppliers, regions, years, "r0", 1, theta=0.5)
    except CalibrationError:
        assume(False)
    for vk, r, terms in zip(fit.v, fit.residuals, fit.vw_terms):
        assert [terms[s] for s in (1, -1)] == [vk * (fit.gamma * vk + s * r) for s in (1, -1)]
    assert fit.open_pairs == sum(cost is not None for row in fit.base_costs for cost in row)
    ours, theirs = seeded_stream(seed), seeded_stream(seed)
    for _ in range(5):
        demands = [int(d) for d in rng.integers(1, 200, n)]
        expected = trade_cost_loop(fit, demands, theirs, scale=1000)
        assert sample_trade_costs(fit, demands, ours, scale=1000) == expected
    assert (ours._state, ours._high) == (theirs._state, theirs._high)


def test_replication_streams_are_deterministic_and_distinct():
    seeds = stream_seeds(99, 3 + 2)
    d1, c1, t1 = replication_streams(seeds, 5)
    d2, c2, t2 = replication_streams(seeds, 5)
    assert len(d1) == 3
    assert [g.below([1000]) for g in d1] == [g.below([1000]) for g in d2]
    assert c1.below([1000]) == c2.below([1000])
    d3, _, _ = replication_streams(seeds, 6)
    seq1 = [g.below([10_000]) for g in replication_streams(seeds, 5)[0]]
    seq3 = [g.below([10_000]) for g in d3]
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


def test_sample_capacity_zero_variance_pool():
    rng = seeded_stream(0)
    caps = sample_capacity(1000.0, [0.10, 0.25], [0.0], rng)
    assert caps == (100, 250)


def test_sample_capacity_two_sided_range():
    rng = seeded_stream(0)
    values = {
        sample_capacity(1000.0, [0.10], [20.0], rng)[0] for _ in range(50)
    }
    assert values == {80, 120}


def test_sample_capacity_clamps_to_one_unit():
    rng = seeded_stream(0)
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


def two_year_history_by_hand():
    """The two-year history's cost changes ``w`` and share changes ``v``,
    recomputed spreadsheet-style, step by step, and its relative costs."""
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
    w = [
        rho[("A", "R1", 2)] - rho[("A", "R1", 1)],
        rho[("A", "R2", 2)] - rho[("A", "R2", 1)],
        rho[("B", "R1", 2)] - rho[("B", "R1", 1)],
    ]
    share = {key: demand[key] / (demand[("R1", key[1])] + demand[("R2", key[1])])
             for key in demand}
    growth = share[("R1", 2)] / share[("R1", 1)]
    v = [
        share[("R1", 2)] / growth - share[("R1", 1)],
        share[("R2", 2)] / growth - share[("R2", 1)],
        share[("R1", 2)] / growth - share[("R1", 1)],
    ]
    return w, v, rho


def test_inversion_two_year_fixture_recomputed_by_hand():
    flows, local, suppliers, regions, years = two_year_history()
    fit = fit_trade_costs(flows, local, suppliers, regions, years, "R1", 1, theta=0.5)
    _, expected_v, rho = two_year_history_by_hand()

    assert list(fit.v) == pytest.approx(expected_v)
    assert expected_v[0] == pytest.approx(0.0)  # reference market by construction
    assert expected_v[1] == pytest.approx(0.012)
    # base costs anchor at the reference year; B->R2 is masked
    assert fit.base_costs[0][0] == pytest.approx(rho[("A", "R1", 1)])
    assert fit.base_costs[1][1] is None
    assert fit.ref_shares == pytest.approx((46 / 60, 14 / 60))
    assert fit.reference == 0


def test_inversion_anchors_a_pair_inactive_in_the_reference_year_at_its_mean():
    # A->R2 trades in years 2 and 3 only; B->R2 never trades
    suppliers = ["A", "B"]
    regions = ["R1", "R2"]
    flows = {
        ("A", "R1", 1): 10.0,
        ("A", "R1", 2): 12.0,
        ("A", "R1", 3): 11.0,
        ("B", "R1", 1): 6.0,
        ("B", "R1", 2): 6.0,
        ("B", "R1", 3): 7.0,
        ("A", "R2", 2): 4.0,
        ("A", "R2", 3): 5.0,
    }
    local = {
        ("R1", 1): 30.0, ("R1", 2): 32.0, ("R1", 3): 31.0,
        ("R2", 1): 10.0, ("R2", 2): 12.0, ("R2", 3): 11.0,
    }
    fit = fit_trade_costs(flows, local, suppliers, regions, [1, 2, 3], "R1", 1, theta=0.5)

    # year 2: demand R1 32 + 18 = 50, R2 12 + 4 = 16; year 3: R1 31 + 18 = 49, R2 11 + 5 = 16
    a2, a3 = 0.5 / 66.0, 0.5 / 65.0
    level2 = ((1 - a2 * 18) - a2 * 12 + (1 - a2 * 18) - a2 * 6) / 2
    level3 = ((1 - a3 * 18) - a3 * 11 + (1 - a3 * 18) - a3 * 7) / 2
    rho2 = (1 - a2 * 4) - a2 * 4 - level2
    rho3 = (1 - a3 * 5) - a3 * 5 - level3
    base = (rho2 + rho3) / 2
    assert fit.base_costs[0][1] == pytest.approx(base)
    assert fit.base_costs[1][1] is None

    # w and v in (supplier, region, year) order; A->R2's entries are the 3rd and 4th
    share1 = {"R1": 46 / 56, "R2": 10 / 56}
    share2 = {"R1": 50 / 66, "R2": 16 / 66}
    share3 = {"R1": 49 / 65, "R2": 16 / 65}
    growth2, growth3 = share2["R1"] / share1["R1"], share3["R1"] / share1["R1"]
    assert len(fit.residuals) == len(fit.v) == 6
    w = [r + fit.gamma * v for r, v in zip(fit.residuals, fit.v)]
    assert w[2:4] == pytest.approx([rho2 - base, rho3 - base])
    assert w[2] == pytest.approx(-w[3])  # deviations from their own mean
    assert fit.v[2:4] == pytest.approx(
        [share2["R2"] / growth2 - share1["R2"], share3["R2"] / growth3 - share1["R2"]]
    )


def test_inversion_of_a_single_year_is_degenerate():
    flows, local, suppliers, regions, _ = two_year_history()
    flows = {k: v for k, v in flows.items() if k[2] == 1}
    local = {k: v for k, v in local.items() if k[1] == 1}
    with pytest.raises(CalibrationError, match=r"degenerate share-change regressor \(v.v = 0\)"):
        fit_trade_costs(flows, local, suppliers, regions, [1], "R1", 1, theta=0.5)


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
    assert real_share_changes((44 / 66, 22 / 66), (40 / 60, 20 / 60), 0) == (0.0, 0.0)
    with pytest.raises(CalibrationError, match=r"\(v.v = 0\)"):  # so no slope can be fitted
        fit_trade_costs(flows, local, suppliers, regions, [1, 2], "R1", 1, theta=0.5)


def test_trade_cost_regression_closed_forms():
    # least squares through the origin: gamma = v.w / v.v, residuals w - gamma v
    flows, local, suppliers, regions, years = two_year_history()
    fit = fit_trade_costs(flows, local, suppliers, regions, years, "R1", 1, theta=0.5)
    w, v, _ = two_year_history_by_hand()
    vv = sum(b * b for b in v)
    gamma = sum(a * b for a, b in zip(v, w)) / vv
    assert fit.vv == pytest.approx(vv)
    assert fit.gamma == pytest.approx(gamma)
    assert list(fit.residuals) == pytest.approx([a - gamma * b for a, b in zip(w, v)])
    assert sum(r * b for r, b in zip(fit.residuals, fit.v)) == pytest.approx(0.0, abs=1e-15)


@settings(deadline=None, max_examples=200)
@given(
    d_units=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=9),
    ref_weights=st.lists(st.integers(min_value=1, max_value=10**6), min_size=9, max_size=9),
    year_weights=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=9, max_size=9),
    reference=st.integers(min_value=0, max_value=8),
)
def test_real_share_changes_equal_the_history_and_draw_forms(
    d_units, ref_weights, year_weights, reference
):
    n = len(d_units)
    reference %= n
    ref_shares = [x / sum(ref_weights[:n]) for x in ref_weights[:n]]
    assert real_share_changes(
        [d / sum(d_units) for d in d_units], ref_shares, reference
    ) == draw_share_changes(d_units, ref_shares, reference)

    shares = [x / sum(year_weights[:n]) for x in year_weights[:n]]
    share = {(j, 1): s for j, s in enumerate(ref_shares)}
    share.update({(j, 2): s for j, s in enumerate(shares)})
    assert real_share_changes(shares, ref_shares, reference) == tuple(
        history_share_change(share, j, 2, reference, 1) for j in range(n)
    )


def zero_residual_fit(base_costs, ref_shares):
    """A trade-cost fit of slope -2 with zero residuals, with reference market 0."""
    return TradeCostFit(
        base_costs=base_costs,
        ref_shares=ref_shares,
        reference=0,
        gamma=-2.0,
        residuals=(0.0, 0.0),
        v=(1.0, 2.0),
        vv=5.0,
        vw_terms=((0.0, -2.0, -2.0), (0.0, -8.0, -8.0)),  # v_k * (gamma * v_k +- 0)
        open_pairs=sum(cost is not None for row in base_costs for cost in row),
    )


def test_sample_trade_costs_identity_and_mask():
    fit = zero_residual_fit(((0.10, None), (0.05, 0.08)), (0.25, 0.75))
    rng = seeded_stream(0)
    draw = sample_trade_costs(fit, (10, 30), rng, scale=100)  # no share changes
    assert draw == ((10, None), (5, 8))


def test_sample_trade_costs_negative_slope_cuts_costs():
    fit = zero_residual_fit(((None, 0.10),), (0.5, 0.5))
    rng = seeded_stream(0)
    draw = sample_trade_costs(fit, (50, 52), rng, scale=100)  # R2's share change: 0.02
    assert draw[0][1] == 6  # 0.10 - 2.0 * 0.02


def test_sample_trade_costs_clamps_at_zero():
    fit = zero_residual_fit(((None, 0.01),), (0.5, 0.5))
    rng = seeded_stream(0)
    draw = sample_trade_costs(fit, (50, 55), rng, scale=100)  # R2's share change: 0.05
    assert draw[0][1] == 0


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
