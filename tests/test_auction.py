"""Valuation, demand, auction and oracle behavior on small instances."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import (
    EnumerationBudgetError,
    brute_force_equilibrium,
    built_market_network,
    bundle_utility,
    enumerating_auction,
    enumerating_certificate,
    import_spend,
    smallest_minimizer,
    step_values,
    valuation,
)
from phosmarket import auction
from phosmarket.core import Equilibrium, MarketInstance
from phosmarket.auction import (
    certify_minimal_markups,
    cold_start,
    demand_bundle,
    local_spend,
    reference_start,
    run_english_auction,
    solve_minimal_markups,
    verify_equilibrium,
)
from phosmarket.config import load_config
from phosmarket.experiment import assemble_draw, load_context


def cold_solve(inst):
    return solve_minimal_markups(inst, cold_start(inst))


SOLVERS = (run_english_auction, cold_solve)


def make(s, d, a, c_o, t):
    return MarketInstance(s=tuple(s), d=tuple(d), a=a, c_o=tuple(c_o), t=tuple(map(tuple, t)))


def random_instance(
    rng, *, m_max=3, n_max=3, s_max=4, d_max=5, cost_max=20, a_max=2, mask=None
):
    """A random instance; ``mask`` (open pairs by supplier, then market) fixes its arc pattern."""
    if mask is None:
        m = int(rng.integers(1, m_max + 1))
        n = int(rng.integers(1, n_max + 1))
        mask = [[bool(rng.random() < 0.85) for _ in range(n)] for _ in range(m)]
    m, n = len(mask), len(mask[0])
    t = [
        [int(rng.integers(0, cost_max + 1)) if mask[i][j] else None for j in range(n)]
        for i in range(m)
    ]
    return make(
        s=[int(rng.integers(1, s_max + 1)) for _ in range(m)],
        d=[int(rng.integers(1, d_max + 1)) for _ in range(n)],
        a=int(rng.integers(0, a_max + 1)),
        c_o=[int(rng.integers(1, cost_max + 1)) for _ in range(n)],
        t=t,
    )


def enumerated_valuation(xcap, j, inst):
    """Direct evaluation of the savings maximum over the whole cap box."""
    best = 0
    ranges = [range(cap + 1) for cap in xcap]
    for z in itertools.product(*ranges):
        if sum(z) > inst.d[j]:
            continue
        savings = (
            local_spend(inst.d[j], j, inst)
            - local_spend(inst.d[j] - sum(z), j, inst)
            - sum(import_spend(z[i], i, j, inst) for i in range(inst.m) if z[i])
        )
        best = max(best, savings)
    return best


# ---------------------------------------------------------------------------
# Spending schedules


def test_local_spend_examples():
    inst = make([5], [5], 1, [10], [[2]])
    assert local_spend(0, 0, inst) == 0
    assert local_spend(3, 0, inst) == 39
    flat = make([5], [5], 0, [7], [[2]])
    assert local_spend(4, 0, flat) == 28


def test_import_spend_examples():
    inst = make([5], [5], 1, [10], [[2]])
    assert import_spend(0, 0, 0, inst) == 0
    assert import_spend(2, 0, 0, inst) == 8
    assert import_spend(1, 0, 0, inst) == 3


def test_spend_preconditions():
    inst = make([2], [3], 1, [10], [[None]])
    with pytest.raises(ValueError):
        local_spend(4, 0, inst)
    with pytest.raises(ValueError):
        import_spend(1, 0, 0, inst)  # masked pair
    open_inst = make([2], [3], 1, [10], [[2]])
    with pytest.raises(ValueError):
        import_spend(3, 0, 0, open_inst)  # above capacity


@given(
    z=st.integers(min_value=0, max_value=12),
    a=st.integers(min_value=0, max_value=5),
    c=st.integers(min_value=1, max_value=30),
)
def test_local_spend_telescopes_marginals(z, a, c):
    inst = make([1], [12], a, [c], [[0]])
    assert local_spend(z, 0, inst) == sum(c + a * (2 * k - 1) for k in range(1, z + 1))


@given(
    z=st.integers(min_value=0, max_value=8),
    a=st.integers(min_value=0, max_value=5),
    t=st.integers(min_value=0, max_value=20),
    p=st.integers(min_value=0, max_value=20),
)
def test_import_spend_plus_markup_telescopes_marginals(z, a, t, p):
    inst = make([8], [8], a, [30], [[t]])
    marginals = sum(t + p + a * (2 * u - 1) for u in range(1, z + 1))
    assert import_spend(z, 0, 0, inst) + p * z == marginals


# ---------------------------------------------------------------------------
# Valuation


def test_valuation_examples():
    inst = make([3], [3], 1, [10], [[2]])
    assert valuation([0], 0, inst) == 0
    assert valuation([2], 0, inst) == 20
    assert valuation([3], 0, inst) == 24


def test_valuation_rejects_bad_caps():
    inst = make([3], [3], 1, [10], [[None]])
    with pytest.raises(ValueError):
        valuation([1], 0, inst)  # masked pair
    open_inst = make([3], [3], 1, [10], [[2]])
    with pytest.raises(ValueError):
        valuation([4], 0, open_inst)
    with pytest.raises(ValueError):
        valuation([-1], 0, open_inst)


def test_valuation_matches_enumeration_on_random_cases():
    rng = np.random.default_rng(2210)
    for _ in range(150):
        inst = random_instance(rng, d_max=6, s_max=6)
        j = int(rng.integers(inst.n))
        caps = [
            int(rng.integers(0, inst.s[i] + 1)) if inst.t[i][j] is not None else 0
            for i in range(inst.m)
        ]
        assert valuation(caps, j, inst) == enumerated_valuation(caps, j, inst)


# ---------------------------------------------------------------------------
# Demand bundles


def test_demand_bundle_examples():
    inst = make([2], [3], 1, [10], [[2]])
    bundle = demand_bundle(0, [0], inst)
    assert bundle.z == (2,)
    assert bundle.utility == 20

    tie = make([1], [1], 0, [8], [[3]])
    assert demand_bundle(0, [5], tie).z == (0,)

    # imports never profitable: first-unit cost meets the top local marginal
    dear = make([2], [2], 1, [5], [[20]])
    assert demand_bundle(0, [0], dear).z == (0,)


def test_demand_bundle_utility_matches_enumeration():
    rng = np.random.default_rng(515)
    for _ in range(120):
        inst = random_instance(rng, d_max=6, s_max=6)
        j = int(rng.integers(inst.n))
        markups = [int(rng.integers(0, 15)) for _ in range(inst.m)]
        bundle = demand_bundle(j, markups, inst)
        box = [
            range(inst.s[i] + 1) if inst.t[i][j] is not None else range(1)
            for i in range(inst.m)
        ]
        best = max(
            bundle_utility(z, j, markups, inst)
            for z in itertools.product(*box)
            if sum(z) <= inst.d[j]
        )
        assert bundle.utility == best
        assert bundle_utility(bundle.z, j, markups, inst) == best


def test_demand_never_exceeds_market_size():
    rng = np.random.default_rng(808)
    for _ in range(200):
        inst = random_instance(rng, s_max=6, d_max=4)
        markups = [int(rng.integers(0, 25)) for _ in range(inst.m)]
        for j in range(inst.n):
            assert sum(demand_bundle(j, markups, inst).z) <= inst.d[j]


def test_demand_bundle_rejects_negative_markups():
    inst = make([1], [1], 0, [8], [[3]])
    with pytest.raises(ValueError):
        demand_bundle(0, [-1], inst)


# ---------------------------------------------------------------------------
# Ascending auction


def test_auction_two_market_example():
    inst = make([1], [1, 1], 0, [10, 8], [[2, 3]])
    for solve in SOLVERS:
        eq = solve(inst)
        assert eq.markups == (5,)
        assert eq.flows == ((1, 0),)
        assert verify_equilibrium(inst, eq) == []


def test_auction_no_scarcity_keeps_zero_markups():
    inst = make([5, 5], [2, 2], 1, [20, 20], [[1, 1], [2, 2]])
    bundles = [demand_bundle(j, (0, 0), inst) for j in range(inst.n)]
    for solve in SOLVERS:
        eq = solve(inst)
        assert eq.markups == (0, 0)
        assert eq.flows == tuple(
            tuple(bundles[j].z[i] for j in range(inst.n)) for i in range(inst.m)
        )


def test_auction_masked_supplier_stays_at_zero():
    inst = make([2], [2, 2], 1, [10, 10], [[None, None]])
    for solve in SOLVERS:
        eq = solve(inst)
        assert eq.markups == (0,)
        assert eq.flows == ((0, 0),)
        assert verify_equilibrium(inst, eq) == []


def test_auction_markups_never_decrease():
    rng = np.random.default_rng(404)
    for _ in range(50):
        inst = random_instance(rng)
        trace: list[tuple[int, ...]] = []
        run_english_auction(inst, trace=trace)
        for before, after in zip(trace, trace[1:]):
            assert all(x <= y for x, y in zip(before, after))


def test_auction_resolves_demand_ties_without_overshoot():
    # Identical suppliers, capacity exactly equals demand: minimal markups are
    # zero and require splitting tied demand across both suppliers.
    inst = make([1, 1], [1, 1], 0, [10, 10], [[0, 0], [0, 0]])
    for solve in SOLVERS:
        eq = solve(inst)
        assert eq.markups == (0, 0)
        assert verify_equilibrium(inst, eq) == []


def test_reported_flows_are_the_minimal_demanded_bundles_among_equilibrium_flows():
    # Equilibrium flows are not unique at the minimal markups; the reports
    # pin the tie rule: where they clear the market, every market takes its
    # minimal demanded bundle (ties go local first, then by supplier index).
    inst = make(
        [1, 7, 3], [2, 2, 1, 6], 1, [18, 4, 29, 6],
        [[20, 3, None, 10], [7, None, 17, 11], [16, None, 16, None]],
    )
    reported = ((0, 0, 0, 1), (2, 0, 0, 1), (0, 0, 1, 0))
    for solve in SOLVERS:
        assert solve(inst) == Equilibrium((3, 0, 0), reported)
    minimal = [auction._demand_structure(inst, j, (3, 0, 0)).minimal_imports() for j in range(4)]
    assert tuple(zip(*minimal)) == reported
    other = ((0, 1, 0, 0), (2, 0, 0, 2), (0, 0, 1, 0))
    assert verify_equilibrium(inst, Equilibrium((3, 0, 0), other)) == []


# ---------------------------------------------------------------------------
# Verification


def test_verifier_accepts_auction_output():
    rng = np.random.default_rng(11)
    for _ in range(40):
        inst = random_instance(rng)
        report = verify_equilibrium(inst, run_english_auction(inst))
        assert report == []


def test_verifier_flags_unsold_at_positive_markup():
    inst = make([1], [1, 1], 0, [10, 8], [[2, 3]])
    zero_flows = ((0, 0),)
    report = verify_equilibrium(inst, Equilibrium((5,), zero_flows))
    [clearance] = [w for w in report if "unsold at positive markup" in w]
    assert "supplier 0" in clearance


def test_verifier_flags_capacity_breach():
    inst = make([1], [1, 1], 0, [10, 10], [[2, 2]])
    fat_flows = ((1, 1),)
    report = verify_equilibrium(inst, Equilibrium((0,), fat_flows))
    assert any("capacity exceeded" in w for w in report)


def random_bundle(rng, inst, j):
    """A feasible import bundle for market j: open pairs, capacities, at most d_j units."""
    z, left = [], inst.d[j]
    for i in range(inst.m):
        q = int(rng.integers(0, min(inst.s[i], left) + 1)) if inst.t[i][j] is not None else 0
        z.append(q)
        left -= q
    return tuple(z)


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_cheapest_units_certificate_proves_maximal_utility(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, s_max=6, d_max=6)
    markups = [int(rng.integers(0, 15)) for _ in range(inst.m)]
    for j in range(inst.n):
        best = demand_bundle(j, markups, inst)
        # The minimal demanded bundle is a cheapest-units basket, so it passes.
        assert auction._buys_cheapest_units(inst, j, markups, best.z) is None
        for z in [random_bundle(rng, inst, j) for _ in range(4)]:
            if auction._buys_cheapest_units(inst, j, markups, z) is None:
                assert bundle_utility(z, j, markups, inst) == best.utility


def test_verifier_witnesses_an_import_left_unused_at_zero_markup():
    # At zero markup, an imported unit the market would leave unused costs
    # it nothing, so its payoff is maximal; but the flow ships the unit and
    # every statistic counts it, so the verifier rejects the dearer import.
    for inst, (dearer, cheaper) in (
        (make([2], [1], 0, [5], [[9]]), (9, 5)),
        (make([1], [2], 0, [10], [[50]]), (50, 10)),
    ):
        assert bundle_utility((1,), 0, (0,), inst) == demand_bundle(0, (0,), inst).utility
        assert auction._buys_cheapest_units(inst, 0, (0,), (1,)) == (dearer, cheaper)
        assert verify_equilibrium(inst, Equilibrium((0,), ((1,),))) == [
            f"market 0 buys a unit at {dearer} while a unit at {cheaper} goes unbought"
        ]


def test_verifier_flags_suboptimal_bundle():
    inst = make([1], [1, 1], 0, [10, 8], [[2, 3]])
    # at zero markups, both markets strictly prefer importing
    lazy = ((0, 0),)
    report = verify_equilibrium(inst, Equilibrium((0,), lazy))
    assert report == [
        "market 0 buys a unit at 10 while a unit at 2 goes unbought",
        "market 1 buys a unit at 8 while a unit at 3 goes unbought",
    ]


# ---------------------------------------------------------------------------
# Brute-force oracle


def test_oracle_matches_auction_on_named_example():
    inst = make([1], [1, 1], 0, [10, 8], [[2, 3]])
    assert brute_force_equilibrium(inst).markups == (5,)


def test_oracle_zero_markups_without_scarcity():
    inst = make([5, 5], [2, 2], 1, [20, 20], [[1, 1], [2, 2]])
    assert brute_force_equilibrium(inst).markups == (0, 0)


def test_oracle_symmetric_suppliers_earn_equal_markups():
    inst = make([1, 1], [2, 2], 0, [9, 9], [[1, 1], [1, 1]])
    eq = brute_force_equilibrium(inst)
    assert eq.markups[0] == eq.markups[1]


def test_oracle_budget_guard():
    inst = make([4, 4, 4], [5, 5, 5], 2, [20, 20, 20], [[0] * 3] * 3)
    with pytest.raises(EnumerationBudgetError):
        brute_force_equilibrium(inst, budget=10)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_auction_agrees_with_oracle(seed):
    inst = random_instance(np.random.default_rng(seed))
    eq = run_english_auction(inst)
    oracle = brute_force_equilibrium(inst)
    assert eq.markups == oracle.markups
    assert verify_equilibrium(inst, eq) == []
    assert verify_equilibrium(inst, oracle) == []
    assert cold_solve(inst) == eq


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=100_000), flat=st.booleans())
def test_certificate_accepts_oracle_markups_and_rejects_unit_mutants(seed, flat):
    inst = random_instance(np.random.default_rng(seed))
    if flat:
        inst = inst._replace(a=0)
    markups = brute_force_equilibrium(inst).markups
    assert certify_minimal_markups(inst, markups)
    for i in range(inst.m):
        for step in (1, -1):
            mutant = list(markups)
            mutant[i] += step
            if mutant[i] >= 0:
                assert not certify_minimal_markups(inst, mutant), (i, step)


def unit_steps(markups):
    """``markups`` and every vector one unit away from it in one coordinate, within ``p >= 0``."""
    steps = [tuple(markups)]
    for i in range(len(markups)):
        for step in (1, -1):
            mutant = list(markups)
            mutant[i] += step
            if mutant[i] >= 0:
                steps.append(tuple(mutant))
    return steps


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=100_000), flat=st.booleans())
def test_tie_cuts_auction_and_certificate_match_enumeration_of_every_supplier_set(seed, flat):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, m_max=6, a_max=3)
    if flat:
        inst = inst._replace(a=0)
    trace, enumerated = [], []
    eq = run_english_auction(inst, trace=trace)
    assert enumerating_auction(inst, enumerated) == eq.markups
    assert trace == enumerated
    drawn = [int(rng.integers(0, 20)) for _ in range(inst.m)]
    everyone = range(inst.m)
    for markups in unit_steps(eq.markups) + unit_steps(drawn):
        structures = [auction._demand_structure(inst, j, markups) for j in range(inst.n)]
        # Upward: the cut less its caps is the least step L(p + e_S) - L(p).
        caps = [max(0, x.remainder - x.tie_local) for x in structures]
        minimum, raised = auction._tie_cut(inst, structures, everyone, caps)
        up = smallest_minimizer(step_values(inst, markups, everyone, 1))
        assert (minimum - sum(caps), tuple(raised)) == up, markups
        # Downward: the cut at A is spare(P) + L(p - e_{P - A}) - L(p).
        marked = [i for i, p in enumerate(markups) if p >= 1]
        spare = sum(inst.s[i] - sum(x.forced[i] for x in structures) for i in marked)
        cuts = {
            tuple(i for i in marked if i not in lowered): spare + value
            for lowered, value in step_values(inst, markups, marked, -1).items()
        }
        remainders = [x.remainder for x in structures]
        minimum, kept = auction._tie_cut(inst, structures, marked, remainders)
        assert (minimum, tuple(kept)) == smallest_minimizer(cuts), markups
        assert certify_minimal_markups(inst, markups) == enumerating_certificate(inst, markups)


@pytest.mark.parametrize("seed", [2, 5, 7])
def test_auction_and_certificate_at_twelve_suppliers(seed):
    # 12 suppliers and 9 markets with ~80% of the pairs open: 4096 supplier
    # sets per step, which only the cuts make affordable.
    rng = np.random.default_rng(seed)
    mask = [[bool(rng.random() < 0.8) for _ in range(9)] for _ in range(12)]
    sizes = dict(s_max=30, d_max=40, cost_max=60, a_max=3)
    first = random_instance(rng, mask=mask, **sizes)
    inst = random_instance(rng, mask=mask, **sizes)
    eq = run_english_auction(inst)
    assert sum(p > 0 for p in eq.markups) >= 6
    assert cold_solve(inst) == eq
    assert solve_minimal_markups(inst, reference_start(first)) == eq
    assert certify_minimal_markups(inst, eq.markups)
    for mutant in unit_steps(eq.markups)[1:]:
        assert not certify_minimal_markups(inst, mutant), mutant


def test_auction_raises_when_a_tick_misses_its_cut_value(monkeypatch):
    # The objective L read off the demand structures must move by exactly the
    # cut value of each tick; a cut that misreports its minimum breaks that.
    inst = make([1], [1, 1], 0, [10, 8], [[2, 3]])
    tie_cut = auction._tie_cut

    def misreported(*args):
        minimum, smallest = tie_cut(*args)
        return minimum + 1, smallest

    monkeypatch.setattr(auction, "_tie_cut", misreported)
    with pytest.raises(auction.AuctionError, match="other than its cut value"):
        run_english_auction(inst)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_dual_solver_agrees_with_auction_over_several_scaling_phases(seed):
    # Demands up to 60 units start the capacity scaling at Delta = 32, so
    # markups and flows are compared after several halvings; a_max=3
    # includes flat local and import costs (a = 0).
    inst = random_instance(
        np.random.default_rng(seed), m_max=5, n_max=5, s_max=40, d_max=60, cost_max=60, a_max=3
    )
    assume(max(inst.d) >= 4)
    eq = cold_solve(inst)
    assert eq == run_english_auction(inst)
    assert certify_minimal_markups(inst, eq.markups)


def test_dual_solver_terminates_on_flat_costs_instance():
    # Flat costs (a = 0) with a supplier that reaches only market 1.  The
    # path walk-back loops forever on this instance if the "no predecessor"
    # sentinel equals some arc's encoding (as ~0 == -1 would).
    inst = MarketInstance(
        s=(1, 2, 4),
        d=(2, 2),
        a=0,
        c_o=(15, 6),
        t=((None, 10), (17, 2), (None, 16)),
    )
    eq = cold_solve(inst)
    assert eq == run_english_auction(inst)
    assert eq.markups == (0, 0, 0)
    assert verify_equilibrium(inst, eq) == []


def test_balanced_but_suboptimal_start_still_runs_a_unit_phase():
    # The other instance has the same s and d, so its optimum fits and leaves
    # no node imbalanced; its costs differ, so that flow is not optimal here.
    # Delta must still start at 1, or the Bellman-Ford raises on that flow.
    old = make([3, 3], [2, 4], 1, [20, 20], [[1, 9], [9, 1]])
    new = old._replace(t=((9, 1), (1, 9)))
    start = reference_start(old)
    net, excess = auction._market_network(new, start)
    assert not any(excess)
    with pytest.raises(auction.AuctionError, match="negative residual cycle"):
        auction._market_duals(new, net)
    assert solve_minimal_markups(new, start) == cold_solve(new) == run_english_auction(new)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_warm_starts_on_one_arc_pattern_agree_with_cold_solve_and_auction(seed):
    # The second instance starts from the first's optimum, whose flows may
    # exceed its capacities, and from an arbitrary flow and potentials.
    rng = np.random.default_rng(seed)
    sizes = dict(m_max=4, n_max=4, s_max=30, d_max=40, cost_max=60, a_max=3)
    first = random_instance(rng, **sizes)
    second = random_instance(rng, mask=[[c is not None for c in row] for row in first.t], **sizes)
    zero = cold_start(second)
    arbitrary = zero._replace(
        flow=tuple(int(f) for f in rng.integers(-5, 50, len(zero.flow))),
        pi=tuple(int(p) for p in rng.integers(-500, 500, len(zero.pi))),
    )
    eq = run_english_auction(second)
    assert solve_minimal_markups(second, zero) == eq
    assert solve_minimal_markups(second, reference_start(first)) == eq
    assert solve_minimal_markups(second, arbitrary) == eq


def test_start_of_another_arc_pattern_is_rejected():
    inst = make([3, 3], [2, 4], 1, [20, 20], [[1, 9], [9, 1]])
    closed = inst._replace(t=((1, None), (9, 1)))
    with pytest.raises(ValueError, match="start has 8 arc flows"):
        solve_minimal_markups(closed, reference_start(inst))
    zero = cold_start(inst)
    with pytest.raises(ValueError, match="2 potentials"):
        solve_minimal_markups(inst, zero._replace(pi=zero.pi[:2]))


def test_start_of_another_open_pair_pattern_with_as_many_arcs_is_rejected():
    inst = make([3, 3], [2, 4], 1, [20, 20], [[1, None], [9, 1]])
    other = inst._replace(t=((None, 1), (9, 1)))
    start = reference_start(inst)
    assert len(cold_start(other).flow) == len(start.flow) == 7
    with pytest.raises(ValueError, match="7 arc flows and 5 potentials, for other open pairs"):
        solve_minimal_markups(other, start)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_market_network_fills_its_start_arcs_like_a_network_built_arc_by_arc(seed):
    # Starts on the instance's open pairs: zero, another instance's optimum
    # (its flows may exceed this instance's capacities) and arbitrary flows.
    rng = np.random.default_rng(seed)
    sizes = dict(m_max=5, n_max=5, s_max=30, d_max=40, cost_max=60, a_max=3)
    first = random_instance(rng, **sizes)
    inst = random_instance(rng, mask=[[c is not None for c in row] for row in first.t], **sizes)
    zero = cold_start(inst)
    arbitrary = zero._replace(flow=tuple(int(f) for f in rng.integers(-5, 50, len(zero.flow))))
    for start in (zero, reference_start(first), arbitrary):
        net, excess = auction._market_network(inst, start)
        built, built_excess = built_market_network(inst, start)
        assert [list(arcs) for arcs in net.adj] == built.adj
        for name in ("head", "cap", "base", "slope", "flow"):
            assert list(getattr(net, name)) == getattr(built, name), name
        assert excess == built_excess


# ---------------------------------------------------------------------------
# Comparative statics of the production solver, warm-started on one arc pattern


def statics_instance(seed):
    """A random instance, its reference start, its markups and a random supplier and market."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, m_max=5, n_max=4, s_max=8, d_max=10, cost_max=40, a_max=3)
    start = reference_start(inst)
    i, j = int(rng.integers(inst.m)), int(rng.integers(inst.n))
    return rng, inst, start, solve_minimal_markups(inst, start).markups, i, j


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_one_more_unit_of_capacity_never_raises_a_markup(seed):
    # Topkis: the auction's objective has increasing differences in (p_i, s_i).
    _, inst, start, markups, i, _ = statics_instance(seed)
    more = inst._replace(s=tuple(cap + (k == i) for k, cap in enumerate(inst.s)))
    assert all(q <= p for p, q in zip(markups, solve_minimal_markups(more, start).markups))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_one_more_unit_of_demand_never_lowers_a_markup(seed):
    _, inst, start, markups, _, j = statics_instance(seed)
    more = inst._replace(d=tuple(d + (k == j) for k, d in enumerate(inst.d)))
    assert all(q >= p for p, q in zip(markups, solve_minimal_markups(more, start).markups))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_relabeling_the_suppliers_permutes_the_markups(seed):
    rng, inst, _, markups, _, _ = statics_instance(seed)
    order = [int(i) for i in rng.permutation(inst.m)]
    relabeled = inst._replace(s=tuple(inst.s[i] for i in order), t=tuple(inst.t[i] for i in order))
    assert cold_solve(relabeled).markups == tuple(markups[i] for i in order)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_a_higher_local_cost_never_lowers_a_markup(seed):
    # Dearer local units only make every import more attractive.
    rng, inst, start, markups, _, j = statics_instance(seed)
    rise = int(rng.integers(1, 20))
    dearer = inst._replace(c_o=tuple(c + rise * (k == j) for k, c in enumerate(inst.c_o)))
    assert all(q >= p for p, q in zip(markups, solve_minimal_markups(dearer, start).markups))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_relabeling_the_markets_leaves_the_markups_unchanged(seed):
    rng, inst, _, markups, _, _ = statics_instance(seed)
    order = [int(j) for j in rng.permutation(inst.n)]
    relabeled = inst._replace(
        d=tuple(inst.d[j] for j in order),
        c_o=tuple(inst.c_o[j] for j in order),
        t=tuple(tuple(row[j] for j in order) for row in inst.t),
    )
    assert cold_solve(relabeled).markups == markups


def seeded_and_searched_waterlines(inst, start):
    """The waterlines the solver passes ``_allocate``, and ``_min_spend``'s searched ones."""
    seeded = []
    allocate = auction._allocate

    def recording(inst, markups, waterlines):
        seeded.append(waterlines)
        return allocate(inst, markups, waterlines)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(auction, "_allocate", recording)
        markups = solve_minimal_markups(inst, start).markups
    [waterlines] = seeded  # one _allocate call per solve
    return waterlines, [auction._demand_structure(inst, j, markups).mu for j in range(inst.n)]


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_dual_waterlines_equal_searched_ones_on_generated_draws(seed):
    inst = random_instance(
        np.random.default_rng(seed), m_max=5, n_max=5, s_max=40, d_max=60, cost_max=60, a_max=3
    )
    seeded, searched = seeded_and_searched_waterlines(inst, cold_start(inst))
    assert seeded == searched


def test_dual_waterlines_equal_searched_ones_on_fixture_draws():
    data = Path(__file__).parent / "data" / "fixture_small"
    config = load_config(data / "fixture_bau.cfg")
    context = load_context(dataclasses.replace(config, data_dir=data))
    for b in range(100):
        inst = assemble_draw(context, b).instance()
        seeded, searched = seeded_and_searched_waterlines(inst, context.start)
        assert seeded == searched, b


def solved_market_network(inst):
    """The market network after the capacity scaling, and its arcs by (tail, head)."""
    net, excess = auction._market_network(inst, cold_start(inst))
    auction._min_cost_flow(net, excess, [0] * len(net.adj), None)
    return net, {(net.head[e ^ 1], net.head[e]): e for e in range(0, len(net.head), 2)}


def test_bellman_ford_rejects_an_import_unit_moved_back_to_local_supply():
    # Moving one unit that a positively marked supplier i sells to market j
    # back to j's local supply opens the residual cycle S -> i -> j -> S,
    # which costs the import's markup-free unit minus the dearer local unit.
    data = Path(__file__).parent / "data" / "fixture_small"
    config = load_config(data / "fixture_bau.cfg")
    context = load_context(dataclasses.replace(config, data_dir=data))
    moved = 0
    for b in range(20):
        inst = assemble_draw(context, b).instance()
        markups = solve_minimal_markups(inst, context.start).markups
        assert auction._market_duals(inst, solved_market_network(inst)[0])[0] == markups, b
        source = inst.m + inst.n
        for i in (i for i in range(inst.m) if markups[i] > 0):
            for j in range(inst.m, source):
                net, arc = solved_market_network(inst)
                if (i, j) not in arc or net.flow[arc[i, j]] == 0:
                    continue
                for e, units in ((arc[source, i], -1), (arc[i, j], -1), (arc[source, j], 1)):
                    net.flow[e] += units
                    net.flow[e ^ 1] -= units
                with pytest.raises(auction.AuctionError, match="negative residual cycle"):
                    auction._market_duals(inst, net)
                moved += 1
    assert moved > 0
