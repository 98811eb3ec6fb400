"""Buyer valuation, demand, and the solvers for minimal markups.

Buyers on each market face quadratic spending schedules: the k-th locally
produced unit costs ``c_oj + a*(2k - 1)`` at the margin and the u-th unit from
supplier i costs ``t_ij + p_i + a*(2u - 1)``.  A market demanding ``d`` units
therefore solves a separable convex assignment: buy the ``d`` cheapest units
across the local source and every supplier open to the market, that is, with
a trade cost that is not ``None``.  That assignment is computed exactly on
the integer cost grid by a waterline search (:func:`_min_spend`), which
provably matches exhaustive enumeration.

Production computes the componentwise smallest equilibrium markups as the
minimal optimal dual potentials of a convex-cost min-cost flow
(:func:`solve_minimal_markups`), solved by capacity scaling with Dijkstra
on reduced costs.  The scaling starts from a given flow and potentials
(:class:`FlowStart`): zero for a cold start, or a similar instance's
optimum (:func:`reference_start`), which leaves little to move.  Its cost
depends neither on the money grid nor on 2^m, and grows with the logarithm
of the largest node imbalance rather than with the total unit count.  The
start changes neither the markups nor the flows; it also carries the
network's arcs, which only the open pairs fix.  The duals come from a
reverse Bellman-Ford over every node, which raises when the flow is not
optimal.  That flow problem and the allocation's max-flow share one
residual network of paired arcs (:class:`_Network`).  The paper's ascending
auction (:func:`run_english_auction`) is kept as the reference mechanism.
It raises markups along steepest-descent directions of the aggregate
objective ``sum_j V_j(p) + p . s`` (indirect buyer surplus plus the value of
unsold capacity).  Near cost ties, raising every overdemanded supplier can
overshoot the minimal equilibrium, so each tick raises the minimal
overdemanded set (Demange, Gale & Sotomayor 1986): the smallest minimizer of
the one-tick objective change, one min cut (:func:`_tie_cut`).  Both solvers
take their flows from :func:`_allocate`.  The flow's market potentials are
the waterlines at the minimal markups and seed :func:`_allocate`.

:func:`verify_equilibrium` returns one witness per violated condition, so an
empty list means an equilibrium; it accepts a market's purchase by an
exchange certificate on the instance alone before comparing utilities.
:func:`certify_minimal_markups` proves markups minimal at full scale by two
such cuts: no one-tick step of the auction's objective, which is
L-natural-convex (Murota 2003, *Discrete Convex Analysis*, ch. 7), lowers it.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple, Sequence

from .core import Equilibrium, Flows, MarketInstance, require_valid, validate_flows


class AuctionError(RuntimeError):
    """Internal inconsistency in a markup solver (a bug, not a model state)."""


# ---------------------------------------------------------------------------
# Spending schedules


def local_spend(z: int, j: int, inst: MarketInstance) -> int:
    """Spending on ``z`` locally produced units: ``z * (a*z + c_oj)``."""
    if not 0 <= z <= inst.d[j]:
        raise ValueError(f"local purchase {z} outside [0, {inst.d[j]}]")
    return z * (inst.a * z + inst.c_o[j])


# ---------------------------------------------------------------------------
# Waterline assignment of the d cheapest units

# A source is (base, cap): its u-th unit costs base + a*(2u - 1), u = 1..cap.
_Source = tuple[int, int]


def _units_at_or_below(base: int, a: int, cap: int, mu: int) -> int:
    """Number of units of one source with marginal cost <= mu."""
    if cap <= 0:
        return 0
    if a == 0:
        return cap if base <= mu else 0
    if mu < base + a:
        return 0
    k = (mu - base + a) // (2 * a)
    return k if k < cap else cap


def _min_spend(
    sources: Sequence[_Source], a: int, d: int, mu_hint: int | None = None
) -> tuple[int, int]:
    """Exact minimum spend for ``d`` units across sources, and its waterline.

    ``sources`` must be able to supply at least ``d`` units in total.  A hint
    is the waterline itself or one below it (a previous call's waterline
    after each base rose by at most one minor unit), so only those two values
    are tried and anything else raises; without a hint a binary search over
    the integer cost grid is used.
    """
    if d <= 0:
        return 0, 0

    def supply(mu: int) -> int:
        total = 0
        for base, cap in sources:
            total += _units_at_or_below(base, a, cap, mu)
            if total >= d:
                return total
        return total

    if mu_hint is not None:
        mu = mu_hint if supply(mu_hint) >= d else mu_hint + 1
        if mu > mu_hint and supply(mu) < d:
            raise AuctionError("stale waterline hint; price moved by more than one tick")
    else:
        lo = min(base + a for base, cap in sources if cap > 0)
        hi = max(base + a * (2 * cap - 1) for base, cap in sources if cap > 0)
        while lo < hi:
            mid = (lo + hi) // 2
            if supply(mid) >= d:
                hi = mid
            else:
                lo = mid + 1
        mu = lo

    spend = bought = 0  # over the units strictly below the waterline
    for base, cap in sources:
        k = _units_at_or_below(base, a, cap, mu - 1)
        spend += base * k + a * k * k
        bought += k
    if bought >= d:
        raise AuctionError("waterline search produced an inconsistent basket")
    return spend + (d - bought) * mu, mu


def _market_sources(inst: MarketInstance, j: int, markups: Sequence[int]) -> list[_Source]:
    """Market j's sources: local supply, then each open supplier with its markup."""
    sources: list[_Source] = [(inst.c_o[j], inst.d[j])]
    for cost_row, p, cap in zip(inst.t, markups, inst.s):
        cost = cost_row[j]
        if cost is not None:
            sources.append((cost + p, cap))
    return sources


class _MarketDemand(NamedTuple):
    """Tie-aware structure of one market's cheapest-units basket."""

    mu: int  # the waterline
    forced: tuple[int, ...]  # per supplier, units strictly below the waterline
    tie: tuple[int, ...]  # per supplier, units exactly at the waterline
    tie_local: int
    remainder: int  # waterline units still to distribute among ties
    spend: int | None = None  # the basket's spend, where the caller reads it

    def minimal_imports(self) -> tuple[int, ...]:
        """Unique minimal bundle: remainder goes local first, then by index."""
        left = self.remainder - min(self.remainder, self.tie_local)
        z = list(self.forced)
        for i, slack in enumerate(self.tie):
            take = min(left, slack)
            z[i] += take
            left -= take
        if left:
            raise AuctionError("tie capacity cannot absorb the waterline remainder")
        return tuple(z)


def _demand_structure(
    inst: MarketInstance, j: int, markups: Sequence[int], mu_hint: int | None = None
) -> _MarketDemand:
    spend, mu = _min_spend(_market_sources(inst, j, markups), inst.a, inst.d[j], mu_hint)
    return _ties(inst, j, markups, mu)._replace(spend=spend)


def _ties(inst: MarketInstance, j: int, markups: Sequence[int], mu: int) -> _MarketDemand:
    """Market j's units below and at its waterline ``mu`` (not a stale hint), in one pass.

    Each source's counts are :func:`_units_at_or_below` at ``mu - 1`` and at
    ``mu``, computed side by side.
    """
    a, d, m = inst.a, inst.d[j], inst.m
    forced, tie = [0] * m, [0] * m
    below = at = 0
    for i in range(-1, m):  # the local source, then each supplier
        if i < 0:
            base, cap = inst.c_o[j], d
        else:
            base, cap = inst.t[i][j], inst.s[i]
            if base is None:
                continue
            base += markups[i]
        if a:
            low, high = (mu - 1 - base + a) // (2 * a), (mu - base + a) // (2 * a)
            low = 0 if low < 0 else cap if low > cap else low
            high = 0 if high < 0 else cap if high > cap else high
        else:
            low, high = (cap if base < mu else 0), (cap if base <= mu else 0)
        below += low
        at += high
        if i < 0:
            tie_local = high - low
        else:
            forced[i], tie[i] = low, high - low
    if not below < d <= at:
        raise AuctionError("stale waterline hint; price moved by more than one tick")
    return _MarketDemand(mu, tuple(forced), tuple(tie), tie_local, d - below)


# ---------------------------------------------------------------------------
# Valuation and demand correspondence


def valuation(xcap: Sequence[int], j: int, inst: MarketInstance) -> int:
    """Maximum savings from substituting local goods with capped imports.

    Equals the exhaustive maximum of
    ``e_oj(d_j) - e_oj(d_j - sum z) - sum e_ij(z_i)`` over all bundles with
    ``z_i <= xcap_i`` and total at most ``d_j``; computed as the local-only
    spend minus the cheapest-units spend with import caps ``xcap``.
    """
    if len(xcap) != inst.m:
        raise ValueError("cap vector length must equal supplier count")
    sources: list[_Source] = [(inst.c_o[j], inst.d[j])]
    for i, cap in enumerate(xcap):
        if not 0 <= cap <= inst.s[i]:
            raise ValueError(f"cap {cap} outside [0, {inst.s[i]}] (supplier {i})")
        if cap > 0 and inst.t[i][j] is None:
            raise ValueError(f"positive cap on masked pair ({i}, {j})")
        if cap > 0:
            sources.append((inst.t[i][j], cap))  # type: ignore[arg-type]
    spend, _ = _min_spend(sources, inst.a, inst.d[j])
    return local_spend(inst.d[j], j, inst) - spend


class DemandBundle(NamedTuple):
    """A payoff-maximizing import bundle for one market at given markups."""

    z: tuple[int, ...]
    utility: int


def demand_bundle(j: int, markups: Sequence[int], inst: MarketInstance) -> DemandBundle:
    """Minimal payoff-maximizing bundle (ties go local first, then low index)."""
    if len(markups) != inst.m:
        raise ValueError("markup vector length must equal supplier count")
    if any(p < 0 for p in markups):
        raise ValueError("markups must be nonnegative")
    structure = _demand_structure(inst, j, markups)
    z = structure.minimal_imports()
    utility = local_spend(inst.d[j], j, inst) - structure.spend
    return DemandBundle(z=z, utility=utility)


def bundle_utility(z: Sequence[int], j: int, markups: Sequence[int], inst: MarketInstance) -> int:
    """Payoff of an arbitrary bundle: valuation minus markup payments."""
    return valuation(z, j, inst) - sum(p * q for p, q in zip(markups, z))


# ---------------------------------------------------------------------------
# Minimal markups as min-cost-flow duals


class FlowStart(NamedTuple):
    """Where :func:`solve_minimal_markups` starts its capacity scaling, and on which arcs.

    ``flow`` holds one flow per forward arc and ``pi`` one potential per
    node.  The arcs depend only on the open pairs, ``open[i][j]``, so their
    ``adj`` and ``head`` (:class:`_Network`) serve every instance on them.
    Any start gives the same equilibrium; one near the optimum saves most of
    the scaling's Dijkstra runs.
    """

    flow: tuple[int, ...]
    pi: tuple[int, ...]
    open: tuple[tuple[bool, ...], ...]
    adj: tuple[tuple[tuple[int, int], ...], ...]
    head: tuple[int, ...]


def cold_start(inst: MarketInstance) -> FlowStart:
    """Zero flow and zero potentials on the market network of ``inst``.

    Its nodes are the suppliers ``0..m-1``, the markets ``m..m+n-1`` and a
    source S.  Its arcs, in order, are S -> supplier i (capacity ``s_i``,
    cost 0), then per market j S -> j (local supply, the u-th unit costs
    ``c_oj + a(2u-1)``) and supplier i -> j on each open pair (the u-th unit
    costs ``t_ij + a(2u-1)``).
    """
    m, n = inst.m, inst.n
    net = _Network(m + n + 1)
    for i in range(m):
        net.add(m + n, i, 0)
    for j, costs in enumerate(zip(*inst.t)):
        for i in [m + n] + [i for i, cost in enumerate(costs) if cost is not None]:
            net.add(i, m + j, 0)
    opened = tuple(tuple(cost is not None for cost in row) for row in inst.t)
    zero = (0,) * (len(net.head) // 2), (0,) * (m + n + 1)
    return FlowStart(*zero, opened, tuple(map(tuple, net.adj)), tuple(net.head))


def reference_start(inst: MarketInstance) -> FlowStart:
    """The optimal flow and final potentials of a cold solve of ``inst``.

    Instances on the same arc pattern with nearby capacities and costs, such
    as the bootstrap replications of one run, warm-start from it.
    """
    require_valid(inst)
    zero = cold_start(inst)
    net, excess = _market_network(inst, zero)
    pi = _min_cost_flow(net, excess, list(zero.pi), None)
    return zero._replace(flow=tuple(net.flow[::2]), pi=tuple(pi))


def solve_minimal_markups(
    inst: MarketInstance, start: FlowStart, *, trace: list[tuple[int, ...]] | None = None
) -> Equilibrium:
    """Compute the equilibrium with the componentwise smallest markup vector.

    The market is a separable convex transportation problem on the network
    of :func:`cold_start`.  S holds ``sum(d)`` units of excess and market j
    a deficit of ``d_j``; the sink that drains the markets is left implicit.
    :func:`_min_cost_flow` finds an optimal integer flow by capacity
    scaling, starting from ``start``: its flow clipped to this instance's
    capacities, and its potentials (:func:`cold_start` gives zero for both,
    :func:`reference_start` a solved instance's).  In its residual network,
    with a zero-cost disposal arc from each supplier back to S, the reverse
    Bellman-Ford of :func:`_market_duals` gives ``p_i = -dist(i -> S)``, the
    smallest optimal dual potential.  Optimal duals do not depend on which optimal
    flow was found, so this is the minimal Walrasian markup vector that the
    ascending auction reaches, whatever the start.  The flows come from
    :func:`_allocate` at those markups, as in the auction, never from the
    flow solution.

    A ``trace`` list, when given, receives the node path of every
    Delta-augmentation.
    """
    require_valid(inst)
    net, excess = _market_network(inst, start)
    _min_cost_flow(net, excess, list(start.pi), trace)
    markups, waterlines = _market_duals(inst, net)
    return Equilibrium(markups, _allocate(inst, markups, waterlines))


def _market_network(inst: MarketInstance, start: FlowStart) -> tuple[_Network, list[int]]:
    """The network of :func:`solve_minimal_markups` on ``start``'s arcs, and its node excesses.

    The instance gives each arc its capacity and costs, and each forward arc
    carries ``start``'s flow clipped to ``[0, cap]``.  An instance with other
    open pairs than ``start``'s is rejected.
    """
    m, n, s = inst.m, inst.n, inst.s
    opened = tuple([tuple([cost is not None for cost in row]) for row in inst.t])
    if opened != start.open or len(start.pi) != m + n + 1:
        raise ValueError(
            f"start has {len(start.flow)} arc flows and {len(start.pi)} potentials, for other open "
            f"pairs or nodes than the network's {m + n + sum(map(sum, opened))} arcs and "
            f"{m + n + 1} nodes"
        )
    # each forward arc's capacity and unit cost; its reverse arc follows it
    forward_cap, forward_base = list(s), [0] * m
    for d_j, c_j, costs in zip(inst.d, inst.c_o, zip(*inst.t)):
        forward_cap.append(d_j)
        forward_base.append(c_j)
        for cap_i, cost in zip(s, costs):
            if cost is not None:
                forward_cap.append(cap_i if cap_i < d_j else d_j)
                forward_base.append(cost)
    arcs = 2 * len(forward_cap)
    cap, base, flow = [0] * arcs, [0] * arcs, [0] * arcs
    cap[::2] = forward_cap
    base[::2] = forward_base
    base[1::2] = [-cost for cost in forward_base]
    head = start.head
    excess = [0] * m + [-d for d in inst.d] + [sum(inst.d)]
    for e, f, cap_e in zip(range(0, arcs, 2), start.flow, forward_cap):
        if f > 0:
            f = f if f < cap_e else cap_e
            flow[e], flow[e + 1] = f, -f
            excess[head[e + 1]] -= f
            excess[head[e]] += f
    net = _Network.__new__(_Network)  # on the start's arcs, which nothing adds to
    net.adj, net.head, net.base, net.cap, net.flow = start.adj, head, base, cap, flow
    net.slope = [0] * (2 * m) + [inst.a] * (arcs - 2 * m)
    return net, excess


def _min_cost_flow(
    net: _Network, excess: list[int], pi: list[int], trace: list[tuple[int, ...]] | None
) -> list[int]:
    """Move every node's ``excess`` (negative for a deficit) at least convex cost.

    Capacity scaling (Ahuja, Magnanti & Orlin, *Network Flows*, ch. 14) from
    the flow in ``net`` and the potentials ``pi``, which it updates and
    returns: for Delta = the largest power of two <= the largest node
    imbalance, but at least 1, down to 1, units move in chunks of Delta.
    Each phase first pushes Delta on every Delta-residual arc of negative
    reduced cost ``c + pi_u - pi_v``, again and again until its reduced cost
    is no longer negative, since a warm start may leave it negative for many
    chunks.  Then it repeatedly runs a multi-source Dijkstra on reduced
    costs from the nodes with excess >= Delta to the nearest node with
    deficit >= Delta, sends Delta along that path and raises the potentials
    by the distances (capped at the target's).  The last phase, Delta = 1,
    leaves an optimal integer flow, whatever the start: a balanced start
    still runs that phase, whose sweep removes every negative unit arc.
    """
    adj, head, base, slope, cap, flow = net.adj, net.head, net.base, net.slope, net.cap, net.flow
    nodes = len(adj)
    heappush, heappop, inf = heapq.heappush, heapq.heappop, math.inf

    delta = 1 << max(max(map(abs, excess)).bit_length() - 1, 0)
    while delta:
        for e, v in enumerate(head):
            u = head[e ^ 1]
            while cap[e] - flow[e] >= delta and (
                base[e] + slope[e] * (2 * flow[e] + delta) + pi[u] < pi[v]
            ):
                flow[e] += delta
                flow[e ^ 1] -= delta
                excess[u] -= delta
                excess[v] += delta
        while True:
            heap = [(0, u) for u in range(nodes) if excess[u] >= delta]
            if not heap:
                break
            dist = [inf] * nodes
            via = [-1] * nodes  # the arc that reached each node
            settled = [False] * nodes
            for _, u in heap:
                dist[u] = 0
            target = -1
            while heap:
                du, u = heappop(heap)
                if settled[u]:
                    continue
                settled[u] = True
                if excess[u] <= -delta:
                    target = u
                    break
                du += pi[u]
                for e, v in adj[u]:
                    if settled[v]:
                        continue
                    f = flow[e]
                    if cap[e] - f >= delta:
                        dv = du + base[e] + slope[e] * (2 * f + delta) - pi[v]
                        if dv < dist[v]:
                            dist[v] = dv
                            via[v] = e
                            heappush(heap, (dv, v))
            if target < 0:
                break
            reach = dist[target]
            for v in range(nodes):
                pi[v] += dist[v] if settled[v] else reach  # type: ignore[assignment]
            excess[target] += delta  # the path's inner nodes keep their excess
            path = net.augment(via, target, delta)
            excess[path[-1]] -= delta
            if trace is not None:
                trace.append(tuple(reversed(path)))
        delta >>= 1
    if any(excess):
        raise AuctionError("capacity scaling left unmet demand")
    return pi


def _market_duals(inst: MarketInstance, net: _Network) -> tuple[tuple[int, ...], list[int]]:
    """Markups and market waterlines read off the flow in the market's network.

    A reverse Bellman-Ford over the unit residual arcs gives to_source[v] =
    dist(v -> S); the disposal arcs give every supplier a zero-cost way back
    to S, so markups are >= 0.  It is queue-based (Bellman-Ford-Moore): a
    node whose distance fell relaxes the arcs into it, the reverses of its
    own arcs, once per pass.  Every node, S included, is relaxed, and every
    node reaches S through a disposal arc or a reverse arc.  So the
    distances settle within ``nodes`` passes, with S staying at 0, exactly
    when the flow is optimal: otherwise its residual network holds a
    negative cycle (Ahuja, Magnanti & Orlin, ch. 14) and this raises.
    """
    m, n = inst.m, inst.n
    adj, base, slope, cap, flow = net.adj, net.base, net.slope, net.cap, net.flow
    nodes = len(adj)
    to_source = [0] * m + [math.inf] * n + [0]
    queue = [*range(m), nodes - 1]  # the nodes of finite distance, in order
    waiting = [True] * m + [False] * n + [True]
    queued = [1] * m + [0] * n + [1]  # at most once per pass
    for v in queue:
        waiting[v] = False
        dv = to_source[v]
        for back, u in adj[v]:
            e = back ^ 1  # the residual arc u -> v
            f = flow[e]
            if f < cap[e]:
                du = base[e] + slope[e] * (2 * f + 1) + dv
                if du < to_source[u]:
                    to_source[u] = du
                    if not waiting[u]:
                        if queued[u] > nodes:
                            raise AuctionError(
                                "negative residual cycle; the min-cost flow is not optimal"
                            )
                        queued[u] += 1
                        waiting[u] = True
                        queue.append(u)
    markups = tuple([-int(dist) for dist in to_source[:m]])
    # The residual arcs out of market j undo its bought units, so -dist(j -> S)
    # is its dearest bought unit's marginal cost, markup included: its waterline.
    waterlines = [-dist for dist in to_source[m : m + n]]
    return markups, waterlines  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Ascending auction


def _markup_bound(inst: MarketInstance) -> int:
    """No buyer pays above its worst local marginal cost."""
    return max(inst.c_o[j] + inst.a * (2 * inst.d[j] - 1) for j in range(inst.n))


def _tie_cut(
    inst: MarketInstance,
    structures: Sequence[_MarketDemand],
    suppliers: Sequence[int],
    market_caps: Sequence[int],
) -> tuple[int, list[int]]:
    """Minimum of ``spare(A) + sum_j min(cap_j, T_j(suppliers - A))``, and its smallest A.

    A ranges over subsets of ``suppliers``.  From ``structures``, ``T_ij`` are
    tie units and ``spare_i = s_i - sum_j F_ij`` is capacity beyond forced
    units.  This is the min cut of source -> market j (``cap_j``) -> supplier
    i (``T_ij``) -> sink (``spare_i``, or ``-spare_i`` from the source and an
    offset); its smallest A is the suppliers a max flow's residual reaches.
    """
    m = inst.m
    source, sink = m + inst.n, m + inst.n + 1
    net, offset = _Network(sink + 1), 0
    for j, cap in enumerate(market_caps):
        net.add(source, m + j, cap)
        for i in suppliers:
            if structures[j].tie[i]:
                net.add(m + j, i, structures[j].tie[i])
    for i in suppliers:
        spare = inst.s[i] - sum(structure.forced[i] for structure in structures)
        if spare >= 0:
            net.add(i, sink, spare)
        else:
            net.add(source, i, -spare)
            offset += spare
    flow, via = net.max_flow(source, sink)
    return flow + offset, [i for i in suppliers if via[i] >= 0]


def run_english_auction(
    inst: MarketInstance, *, trace: list[tuple[int, ...]] | None = None
) -> Equilibrium:
    """Compute the equilibrium with the componentwise smallest markup vector.

    Markups start at zero and never decrease.  Each tick raises by one minor
    unit the smallest S minimizing ``L(p + e_S) - L(p)``, which is the
    :func:`_tie_cut` with market caps ``(r_j - TL_j)^+`` (remainder less local
    ties) less their sum.  When S is empty, a feasible allocation (capacity
    caps plus at least one unit sold per positively marked supplier) is
    assembled from the tie structure.  Each tick's ``L(p) = p.s - sum_j
    minspend_j(p)`` must be the last one's plus that change, or this raises.

    A ``trace`` list, when given, receives the markup vector at every tick.
    """
    require_valid(inst)
    markups = [0] * inst.m
    # Markups rise by at most one per tick: each waterline hints the next.
    waterlines: list[int | None] = [None] * inst.n
    expected = None
    for _ in range(inst.m * (_markup_bound(inst) + 1) + 1):
        if trace is not None:
            trace.append(tuple(markups))
        structures = [_demand_structure(inst, j, markups, waterlines[j]) for j in range(inst.n)]
        waterlines = [structure.mu for structure in structures]
        objective = sum(p * c for p, c in zip(markups, inst.s)) - sum(x.spend for x in structures)
        if expected is not None and objective != expected:
            raise AuctionError("a tick changed the objective by other than its cut value")
        caps = [max(0, x.remainder - x.tie_local) for x in structures]
        minimum, raised = _tie_cut(inst, structures, range(inst.m), caps)
        if not raised:
            return Equilibrium(tuple(markups), _allocate(inst, markups, waterlines))
        expected = objective + minimum - sum(caps)
        for i in raised:
            markups[i] += 1
    raise AuctionError("tick budget exhausted without reaching an equilibrium")


def _allocate(
    inst: MarketInstance, markups: Sequence[int], waterlines: Sequence[int]
) -> Flows:
    """Select per-market optimal bundles that jointly satisfy all conditions.

    Each of ``waterlines`` is a market's waterline at ``markups``.
    """
    m, n = inst.m, inst.n
    structures = [_ties(inst, j, markups, mu) for j, mu in enumerate(waterlines)]

    # Fast path: the minimal demanded bundles already clear everything.
    minimal = [structure.minimal_imports() for structure in structures]
    sold = map(sum, zip(*minimal))
    if all(q <= cap and (q > 0 or p == 0) for q, cap, p in zip(sold, inst.s, markups)):
        return tuple(zip(*minimal))

    forced_total = [sum(forced) for forced in zip(*(x.forced for x in structures))]
    needs = [max(0, 1 - total) if p > 0 else 0 for total, p in zip(forced_total, markups)]
    if any(total > cap for total, cap in zip(forced_total, inst.s)):
        raise AuctionError("forced demand exceeds capacity at terminal markups")

    # Transportation with lower bounds: each market distributes its waterline
    # remainder among tie units; suppliers take at most their spare capacity
    # and, when positively marked, at least one unit overall.
    source, sink = 0, n + m + 1
    ssource, ssink = n + m + 2, n + m + 3
    net = _Network(n + m + 4)
    excess = [0] * (n + m + 4)
    take_edges: dict[tuple[int, int], int] = {}
    for j in range(n):
        r = structures[j].remainder
        excess[1 + j] += r  # source -> market arc with equal lower/upper bound
        excess[source] -= r
        net.add(1 + j, sink, structures[j].tie_local)
        for i in range(m):
            if structures[j].tie[i] > 0:
                take_edges[(j, i)] = net.add(1 + j, 1 + n + i, structures[j].tie[i])
    for i in range(m):
        spare = inst.s[i] - forced_total[i]
        if needs[i] > spare:
            raise AuctionError("clearance requirement exceeds spare capacity")
        net.add(1 + n + i, sink, spare - needs[i])
        excess[sink] += needs[i]
        excess[1 + n + i] -= needs[i]
    net.add(sink, source, sum(structures[j].remainder for j in range(n)))
    required = 0
    for node in range(n + m + 4):
        if excess[node] > 0:
            net.add(ssource, node, excess[node])
            required += excess[node]
        elif excess[node] < 0:
            net.add(node, ssink, -excess[node])
    if net.max_flow(ssource, ssink)[0] != required:
        raise AuctionError("no market-clearing allocation exists at terminal markups")

    return tuple(
        tuple(
            x.forced[i] + (net.flow[take_edges[j, i]] if (j, i) in take_edges else 0)
            for j, x in enumerate(structures)
        )
        for i in range(m)
    )


class _Network:
    """Residual network whose arcs come in pairs: arc e and its reverse e ^ 1.

    ``f`` units on arc e cost ``base[e]*f + slope[e]*f**2``.  The reverse
    arc carries the negated flow and the negated base, so along any residual
    arc the next Delta units cost ``base[e] + slope[e]*(2*flow[e] + Delta)``
    each and fit while ``cap[e] - flow[e] >= Delta``.  ``adj[u]`` holds the
    ``(arc, head)`` pairs out of u in insertion order, which fixes the
    max-flow's choice among tied allocations.
    """

    def __init__(self, nodes: int) -> None:
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
        self.head: list[int] = []
        self.base: list[int] = []
        self.slope: list[int] = []
        self.cap: list[int] = []
        self.flow: list[int] = []

    def add(self, u: int, v: int, cap: int, base: int = 0, slope: int = 0) -> int:
        e = len(self.head)
        self.adj[u].append((e, v))
        self.adj[v].append((e + 1, u))
        self.head += (v, u)
        self.base += (base, -base)
        self.slope += (slope, slope)
        self.cap += (cap, 0)
        self.flow += (0, 0)
        return e

    def augment(self, via: list[int], v: int, units: int) -> list[int]:
        """Send ``units`` along the arcs ``via`` records back from v; the path's nodes, v first."""
        path = [v]
        while via[v] >= 0:
            e = via[v]
            self.flow[e] += units
            self.flow[e ^ 1] -= units
            v = self.head[e ^ 1]
            path.append(v)
        return path

    def max_flow(self, s: int, t: int) -> tuple[int, list[int]]:
        """Edmonds-Karp: the flow value and the last search's arc into each node (-1: unreached)."""
        adj, head, cap, flow = self.adj, self.head, self.cap, self.flow
        total = 0
        while True:
            via = [-1] * len(adj)
            via[s] = len(head)  # reached, through no arc
            queue = [s]
            for u in queue:  # breadth first, until t is reached
                for e, v in adj[u]:
                    if via[v] < 0 and cap[e] > flow[e]:
                        via[v] = e
                        if v == t:
                            break
                        queue.append(v)
                if via[t] >= 0:
                    break
            else:
                via[s] = -1
                return total, via
            push, v = math.inf, t
            while v != s:
                e = via[v]
                if cap[e] - flow[e] < push:
                    push = cap[e] - flow[e]
                v = head[e ^ 1]
            v = t
            while v != s:
                e = via[v]
                flow[e] += push
                flow[e ^ 1] -= push
                v = head[e ^ 1]
            total += push


# ---------------------------------------------------------------------------
# Verification


def _buys_cheapest_units(
    inst: MarketInstance, j: int, markups: Sequence[int], z: Sequence[int]
) -> bool:
    """Exchange certificate that market j's purchase is a cheapest-units basket.

    Market j buys ``z_i`` units from supplier i and ``d_j - sum(z)`` locally.
    The certificate holds when no unbought next unit (local, or imported on an
    open pair below capacity, markup included) is cheaper than the dearest
    bought unit.  For ``markups >= 0`` it proves ``bundle_utility(z, ...) ==
    demand_bundle(...).utility``:

    - Marginal costs rise within each source (``a >= 0``), so any other basket
      of ``d_j`` units swaps some bought units, each no dearer than the
      dearest, for as many unbought ones, each no cheaper than its source's
      next unit.  So the spend is the minimum ``E`` (separable convex costs
      with a fixed total: Ibaraki & Katoh 1988, *Resource Allocation
      Problems*, ch. 4), and the demanded utility is ``e_oj(d_j) - E``.
    - ``bundle_utility(z)`` is ``e_oj(d_j)`` minus the cheapest markup-free
      spend of any ``w <= z`` topped up locally, minus ``p.z``.  Taking
      ``w = z`` bounds it below by ``e_oj(d_j) - E``.  For the cheapest ``w``,
      ``p >= 0`` gives ``p.z >= p.w``, so it is at most ``e_oj(d_j)`` minus
      the spend of ``w`` with markups, and that spend is at least ``E``.

    It reads only the instance, sharing no code with the solvers.  When it
    fails the basket may still be optimal (imports disposed of at zero
    markup), so the caller then decides exactly.
    """
    a, d, c = inst.a, inst.d[j], inst.c_o[j]
    local = d - sum(z)
    # The dearest of the sources' last bought units, and the cheapest of their next ones.
    dearest = c + a * (2 * local - 1) if local else None
    cheapest = c + a * (2 * local + 1) if local < d else None
    for q, row, p, cap in zip(z, inst.t, markups, inst.s):
        cost = row[j]
        if cost is not None:
            cost += p
            if q:
                last = cost + a * (2 * q - 1)
                if dearest is None or last > dearest:
                    dearest = last
            if q < cap:
                following = cost + a * (2 * q + 1)
                if cheapest is None or following < cheapest:
                    cheapest = following
    return dearest is not None and (cheapest is None or dearest <= cheapest)


def verify_equilibrium(inst: MarketInstance, eq: Equilibrium) -> list[str]:
    """Witnesses of every violated equilibrium condition; empty for an equilibrium.

    Malformed flows or markups (shape, sign, closed pairs, capacity, market
    size: :func:`~phosmarket.core.validate_flows`) are reported alone.
    Otherwise each market must maximize its payoff and no supplier may go
    unsold at a positive markup.  A market whose purchase passes
    :func:`_buys_cheapest_units` maximizes its payoff; any other is checked
    exactly against :func:`demand_bundle`.
    """
    witnesses = validate_flows(eq.flows, inst)
    if len(eq.markups) != inst.m or any(p < 0 for p in eq.markups):
        witnesses.append("malformed markup vector")
    if witnesses:
        return witnesses
    for j, bundle in enumerate(zip(*eq.flows)):
        if _buys_cheapest_units(inst, j, eq.markups, bundle):
            continue
        attained = bundle_utility(bundle, j, eq.markups, inst)
        best = demand_bundle(j, eq.markups, inst).utility
        if attained != best:
            witnesses.append(f"market {j} gets utility {attained}, maximum is {best}")
    for i, (row, p) in enumerate(zip(eq.flows, eq.markups)):
        if p > 0 and not any(row):
            witnesses.append(f"supplier {i} unsold at positive markup {p}")
    return witnesses


def certify_minimal_markups(inst: MarketInstance, markups: Sequence[int]) -> bool:
    """Whether ``markups >= 0`` are the componentwise smallest equilibrium markups.

    Demand has gross substitutes, so the auction's objective ``L(p) = p.s -
    sum_j minspend_j(p)`` is L-natural-convex on ``p >= 0``, and the minimal
    equilibrium markups are its minimal minimizer (Ausubel 2006; Murota,
    Shioura & Yang 2016).  With ``e_S`` the indicator of a nonempty supplier
    set S, the certificate requires ``L(p + e_S) >= L(p)`` and, whenever
    ``p - e_S >= 0``, ``L(p - e_S) > L(p)``.  Each is one tie cut at p: up,
    the auction's stopping test; down, over A within ``P = {i: p_i >= 1}``
    with market caps ``r_j``, the cut at A is ``spare(P) + L(p - e_{P-A}) -
    L(p)``, so every step down raises L exactly when P is the smallest A.

    Proof: no step ``p +- e_S`` inside ``p >= 0`` lowers ``L``, so p
    minimizes it (L-optimality criterion, Murota 2003, *Discrete Convex
    Analysis*, ch. 7).  Minimizers are closed under componentwise minimum
    (``L`` is submodular), so the minimal one, q, is ``<= p``.  If
    ``q != p``, let S be where ``p - q`` attains its maximum ``k >= 1``;
    translation submodularity with shift ``k - 1`` (ibid.) gives ``L(p) +
    L(q) >= L(p - e_S) + L(q + e_S)``, so ``p - e_S >= q`` is a minimizer
    too, which the strict downward test excludes.
    """
    structures = [_demand_structure(inst, j, markups) for j in range(inst.n)]
    up = [max(0, x.remainder - x.tie_local) for x in structures]
    if _tie_cut(inst, structures, range(inst.m), up)[1]:
        return False
    marked = [i for i, p in enumerate(markups) if p >= 1]
    return _tie_cut(inst, structures, marked, [x.remainder for x in structures])[1] == marked
