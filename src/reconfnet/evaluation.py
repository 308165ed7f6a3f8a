"""Congestion evaluation of a fixed matching under the four routing models,
the exact single-commodity uniform-capacity solver, and the exhaustive
toy-scale optimizer used as the ground-truth oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import (
    InstanceTooLargeError,
    NonUniformCapacitiesError,
    NotSingleCommodityError,
)
from .lp import build_mcmf_lp, scale_paths_to, solve_lp, solver_noise
from .lp.linprog import LinearProgram, LpStatus, solve_simplex
from .maxflow import max_flow_with_matching
from .model import (
    ArcIds,
    CongestionReport,
    DemandMatrix,
    DirectedLink,
    Flow,
    FlowPath,
    HybridNetwork,
    LinkKind,
    Matching,
    NodeId,
    arc_order,
    check_endpoints,
    congestion_of,
    infinite_congestion,
    pair_key,
)
from .paths import ArcPath, all_simple_paths, k_shortest_paths


class RoutingModel(Enum):
    """Splittable/unsplittable crossed with segregated/non-segregated."""

    SS = "ss"
    US = "us"
    SN = "sn"
    UN = "un"

    @property
    def splittable(self) -> bool:
        return self in (RoutingModel.SS, RoutingModel.SN)

    @property
    def segregated(self) -> bool:
        return self in (RoutingModel.SS, RoutingModel.US)


@dataclass(frozen=True)
class EvalSpec:
    """How to score a matching: routing model plus path restrictions.

    ``path_limit=None`` evaluates the exact LP (splittable) or rounds over
    the full fractional decomposition (unsplittable); ``path_limit=k``
    restricts each commodity to its k shortest allowed paths by hop count.
    ``trials``/``seed`` only matter for randomized unsplittable rounding.
    """

    routing: RoutingModel
    path_limit: int | None = None
    trials: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (("path_limit", self.path_limit), ("trials", self.trials)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1 when given")


def default_trials(net: HybridNetwork) -> int:
    """Rounds of randomized path rounding: ceil(log2 m) + 3 for m static links."""
    m = max(len(net.static_links), 2)
    return int(math.ceil(math.log2(m))) + 3


def offload_paths(
    net: HybridNetwork, demands: DemandMatrix, matching: Matching
) -> tuple[list[FlowPath], DemandMatrix]:
    """Matched demands ride their own link; the rest become residual."""
    paths: list[FlowPath] = []
    for i, j in demands.commodities():
        if pair_key(i, j) in matching:
            paths.append(((i, j), (net.reconf_arc(i, j),), demands.get(i, j)))
    residual = demands.without_pairs(matching.pairs)
    return paths, residual


def _residual_problem(
    net: HybridNetwork, demands: DemandMatrix, matching: Matching, segregated: bool
) -> tuple[list[FlowPath], DemandMatrix, tuple[DirectedLink, ...]]:
    """Offloaded paths, the demands left to route, and the arcs they may use.

    Every model builds the matched arcs, so a pair outside the network is
    refused before any routing."""
    static = tuple(a for a in net.static_arcs() if a.capacity > 0)
    matched = tuple(a for a in matching.arcs(net) if a.capacity > 0)
    if segregated:
        fixed, residual = offload_paths(net, demands, matching)
        return fixed, residual, static
    return [], demands, static + matched


def _restricted_path_lp(
    per_commodity: dict[tuple[NodeId, NodeId], list[tuple[DirectedLink, ...]]],
    demands: DemandMatrix,
) -> dict[tuple[NodeId, NodeId], list[FlowPath]] | None:
    """Min-congestion split over fixed path menus; None when infeasible.

    Column 0 is the congestion, then one column per menu path.  One demand
    row per commodity, then one capacity row per used arc in arc order."""
    import scipy.sparse as sp

    commodities = sorted(per_commodity)
    if not all(per_commodity[c] for c in commodities):
        return None
    scale = demands.max_demand() or 1.0
    arc_vars: dict[DirectedLink, list[int]] = {}
    rows: list[int] = []
    for r, commodity in enumerate(commodities):
        for path in per_commodity[commodity]:
            rows.append(r)
            for arc in path:
                arc_vars.setdefault(arc, []).append(len(rows))
    total = len(rows) + 1
    cols = list(range(1, total))
    vals = [1.0] * len(cols)
    ordered = sorted(arc_vars, key=arc_order)
    for r, arc in enumerate(ordered, start=len(commodities)):
        rows.extend([r] * (len(arc_vars[arc]) + 1))
        cols.extend(arc_vars[arc] + [0])
        vals.extend([1.0 / arc.capacity] * len(arc_vars[arc]) + [-1.0])
    demand = np.array([demands.get(*c) for c in commodities]) / scale
    lp = LinearProgram(
        matrix=sp.coo_array((vals, (rows, cols)), shape=(len(commodities) + len(ordered), total)),
        row_lower=np.concatenate([demand, np.full(len(ordered), -np.inf)]),
        row_upper=np.concatenate([demand, np.zeros(len(ordered))]),
        col_upper=np.full(total, np.inf),
        cost=np.r_[1.0, np.zeros(total - 1)],
    )

    result = solve_simplex(lp)
    if result.status is not LpStatus.OPTIMAL:
        return None
    out: dict[tuple[NodeId, NodeId], list[FlowPath]] = {}
    noise = solver_noise(scale)
    amounts = iter((result.x[1:] * scale).tolist())  # menu by menu, in column order
    for commodity in commodities:
        paths = [
            (commodity, path, amount)
            for path, amount in zip(per_commodity[commodity], amounts)
            if amount > 1e-11 * scale
        ]
        out[commodity] = scale_paths_to(paths, demands.get(*commodity), slack=noise)
    return out


def _route_splittable_exact(
    arcs: tuple[DirectedLink, ...], residual: DemandMatrix
) -> dict[tuple[NodeId, NodeId], list[FlowPath]] | None:
    """Min-congestion split over every path; None when infeasible."""
    solution = solve_lp(build_mcmf_lp(arcs, residual))
    if not solution.optimal:
        return None
    return {
        commodity: solution.paths(commodity, residual.get(*commodity))
        for commodity in residual.commodities()
    }


def _best_rounding(menus: Iterable[list[FlowPath]], trials: int, seed: int) -> Iterator[list[int]]:
    """The seeded draws of randomized rounding: per trial, one path index per
    commodity, drawn with probability proportional to the path amounts.

    Each trial draws one uniform u per commodity and picks the number of
    entries of the menu's normalised CDF that are at most u.  The CDFs are
    built as ``Generator.choice`` builds them and the uniforms come from the
    same stream, so the picks are those of one ``choice(p=...)`` call per
    commodity, in commodity order."""
    rng = np.random.default_rng(seed)
    cdfs = []
    for paths in menus:
        w = np.array([amount for (_, _, amount) in paths])
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        cdfs.append(cdf)
    sizes = np.array([len(cdf) for cdf in cdfs], dtype=np.intp)
    flat = np.concatenate(cdfs)
    owner = np.repeat(np.arange(len(cdfs)), sizes)  # the menu of each entry
    starts = np.cumsum(sizes) - sizes  # the first entry of each menu
    for _ in range(trials):
        u = rng.random(len(cdfs))
        yield np.add.reduceat(flat <= u[owner], starts, dtype=np.intp).tolist()


def _cheapest_routing(
    numbered: ArcIds,
    fixed: list[FlowPath],
    menus: Sequence[tuple[tuple[NodeId, NodeId], float, Sequence[ArcPath]]],
    assignments: Iterable[Sequence[int]],
) -> tuple[Flow, float]:
    """The first cheapest of ``assignments`` as a flow, with its load.

    ``menus`` lists each residual commodity with its demand and path menu;
    an assignment picks one menu index per commodity.  Its loads are one
    ``bincount`` over arc ids, fixed paths first, which adds each arc's flow
    in the order ``congestion_of`` does; only the winner becomes a ``Flow``."""
    fixed_ids = np.array([numbered.id[a] for _, arcs, _ in fixed for a in arcs], dtype=np.intp)
    fixed_amounts = np.array([d for _, arcs, d in fixed for _ in arcs])
    ids = [[np.array([numbered.id[a] for a in arcs]) for arcs in menu] for _, _, menu in menus]
    amounts = [[np.full(len(arcs), d) for arcs in menu] for _, d, menu in menus]

    def load(assignment: Sequence[int]) -> float:
        picks = list(zip(ids, amounts, assignment))
        arc_ids = np.concatenate([fixed_ids] + [i[k] for i, _, k in picks])
        flow = np.concatenate([fixed_amounts] + [a[k] for _, a, k in picks])
        return float(numbered.loads(arc_ids, flow).max(initial=0.0))

    assignment, price = _first_cheapest(assignments, load)
    chosen = [(commodity, menu[k], d) for (commodity, d, menu), k in zip(menus, assignment)]
    return Flow(list(fixed) + chosen), price


def eval_matching(
    net: HybridNetwork,
    demands: DemandMatrix,
    matching: Matching,
    spec: EvalSpec,
) -> CongestionReport:
    """Congestion of serving ``demands`` on the reconfigured network.

    Segregated models force matched demands onto their own reconfigurable
    link and route the rest over the static network; non-segregated models
    let every commodity use active reconfigurable links as shortcuts.
    Returns the infinite sentinel when some commodity has no allowed route.
    """
    flow = route_matching(net, demands, matching, spec)
    if flow is None:
        return infinite_congestion()
    return congestion_of(net, matching, flow)


def route_matching(
    net: HybridNetwork,
    demands: DemandMatrix,
    matching: Matching,
    spec: EvalSpec,
) -> Flow | None:
    """The flow realizing eval_matching, or None when no routing exists."""
    check_endpoints(net, demands)
    fixed, residual, arcs = _residual_problem(net, demands, matching, spec.routing.segregated)

    if residual.is_empty:
        return Flow(fixed)

    if not spec.routing.splittable and spec.path_limit == 1:
        shortest = k_shortest_paths(arcs, residual.commodities(), 1)
        if not all(shortest.values()):
            return None
        chosen = [(c, shortest[c][0], residual.get(*c)) for c in residual.commodities()]
        return Flow(fixed + chosen)

    if spec.path_limit is None:
        menus = _route_splittable_exact(arcs, residual)
    else:
        shortest = k_shortest_paths(arcs, residual.commodities(), spec.path_limit)
        menus = _restricted_path_lp(shortest, residual)
    if menus is None:
        return None
    if spec.routing.splittable:
        return Flow(fixed + [p for commodity in sorted(menus) for p in menus[commodity]])

    # unsplittable: each commodity takes one path of its optimal split
    split = {c: [p for p in paths if p[2] > 0] for c, paths in sorted(menus.items())}
    if not all(split.values()):
        return None
    trials = spec.trials if spec.trials is not None else default_trials(net)
    draws = _best_rounding(split.values(), trials, spec.seed)
    rounded = [(c, residual.get(*c), [arcs for _, arcs, _ in paths]) for c, paths in split.items()]
    return _cheapest_routing(ArcIds.network(net, matching), fixed, rounded, draws)[0]


# ---------------------------------------------------------------------------
# Exact solver: single commodity, uniform capacities (non-segregated).
# ---------------------------------------------------------------------------


def solve_single_commodity_uniform(
    net: HybridNetwork, demands: DemandMatrix
) -> tuple[Matching, CongestionReport]:
    """Matching maximizing the s-t max-flow of the reconfigured network.

    With uniform capacities the best achievable congestion for a single
    commodity equals demand / (capacity * max-flow-units); the matching
    search runs as one integral max-flow over an auxiliary port graph whose
    optimum provably equals the optimum over matchings.
    """
    check_endpoints(net, demands)
    if demands.is_empty:
        return Matching(), congestion_of(net, Matching(), Flow())
    if len(demands.commodities()) != 1:
        raise NotSingleCommodityError("expected exactly one commodity")
    capacity = _uniform_capacity(net)
    ((s, t),) = demands.commodities()
    d = demands.get(s, t)

    units, matching = max_flow_with_matching(net, s, t)
    expected = d / (capacity * units) if units > 0 else math.inf

    report = eval_matching(net, demands, matching, EvalSpec(routing=RoutingModel.SN))
    if math.isfinite(expected) and not math.isclose(
        report.max_load, expected, rel_tol=1e-7, abs_tol=1e-9
    ):
        raise AssertionError(
            f"max-flow search predicts {expected}, exact evaluation gives {report.max_load}"
        )
    return matching, report


def _uniform_capacity(net: HybridNetwork) -> float:
    capacities = net.capacities()
    if len(capacities) != 1:
        raise NonUniformCapacitiesError(f"capacities are not uniform: {sorted(capacities)}")
    value = capacities.pop()
    if value <= 0:
        raise NonUniformCapacitiesError("uniform capacity must be positive")
    return value


# ---------------------------------------------------------------------------
# Exhaustive optimizer (the oracle for toy instances).
# ---------------------------------------------------------------------------

ORACLE_NODE_LIMIT = 8
_PATH_ASSIGNMENT_BUDGET = 1_000_000
T = TypeVar("T")


def brute_force_opt(
    net: HybridNetwork, demands: DemandMatrix, spec: EvalSpec
) -> tuple[Matching, CongestionReport]:
    """True optimum by enumerating every relevant matching.

    Segregated models only need matchings over demand-positive pairs (other
    links cannot carry any flow), and must try all of them: offloading a
    pair onto its own link can raise the load.  Non-segregated models
    enumerate only the maximal matchings over all candidate pairs, because
    an extra active link never raises the optimum: the flow may leave it
    unused.  Unsplittable models additionally enumerate path assignments
    exhaustively, bounded by a path-count budget.  Networks of more than
    ``ORACLE_NODE_LIMIT`` nodes are refused.

    A matching is priced only while its node-cut bound (``_node_cut_bound``)
    could still beat the incumbent: the enumeration keeps its order and
    skips a matching whose bound is at least the incumbent's price minus
    1e-12.  Its exact load is at least its bound, so it could not undercut
    the incumbent by more than 1e-12, and the winner and its report are
    those of pricing every matching.  A skipped matching's path space is
    never enumerated, so ``InstanceTooLargeError`` for the path budget comes
    only from a matching that is priced.
    """
    check_endpoints(net, demands)
    if net.n > ORACLE_NODE_LIMIT:
        raise InstanceTooLargeError(
            f"exact solving for routing model '{spec.routing.value}' on {net.n} nodes is "
            f"refused: the general problem is NP-hard and the exhaustive oracle is "
            f"capped at {ORACLE_NODE_LIMIT} nodes"
        )
    if spec.routing.segregated:
        base_pairs = list(demands.positive_pairs())
    else:
        base_pairs = list(itertools.combinations(range(net.n), 2))
    matchings = _enumerate_matchings(base_pairs, maximal_only=not spec.routing.segregated)
    bound = _node_cut_bound(net, demands, spec.routing)

    if spec.routing.splittable:
        warm = _warm_price(net, demands, spec.routing)
        matching, _ = _first_cheapest(matchings, lambda m: _unroutable_at_inf(warm(m)), bound)
        return matching, eval_matching(net, demands, matching, EvalSpec(routing=spec.routing))
    flows: dict[Matching, Flow | None] = {}  # the routing of each priced matching

    def route(matching: Matching) -> float:
        flows[matching], load = _unsplittable_cost(net, demands, matching, spec)
        return load

    matching, _ = _first_cheapest(matchings, route, bound)
    flow = flows[matching]
    return matching, infinite_congestion() if flow is None else congestion_of(net, matching, flow)


def _first_cheapest(
    items: Iterable[T],
    price: Callable[[T], float | None],
    bound: Callable[[T], float] | None = None,
) -> tuple[T, float] | None:
    """The first item no later one undercuts by more than 1e-12, with its
    price; None when every price is None (an item priced None is no
    candidate).  An item whose ``bound`` is at least the incumbent's price
    minus 1e-12 is not priced: a price no lower than its bound could not
    undercut the incumbent."""
    best: tuple[T, float] | None = None
    for item in items:
        if best is not None and bound is not None and bound(item) >= best[1] - 1e-12:
            continue
        value = price(item)
        if value is not None and (best is None or value < best[1] - 1e-12):
            best = (item, value)
    return best


def _unroutable_at_inf(price: float | None) -> float:
    return math.inf if price is None else price


def _cheapest_routable(
    net: HybridNetwork, demands: DemandMatrix, matchings: Iterable[Matching], routing: RoutingModel
) -> Matching | None:
    """The first of ``matchings`` with a routing that no later one undercuts
    by more than 1e-12 in exact splittable load, or None when none has one;
    priced on one warm LP, under the node-cut bound."""
    best = _first_cheapest(
        matchings, _warm_price(net, demands, routing), _node_cut_bound(net, demands, routing)
    )
    return None if best is None else best[0]


def _offload_loads(net: HybridNetwork, demands: DemandMatrix) -> np.ndarray:
    """Each commodity's load on its own reconfigurable arc, in commodity order."""
    commodities = demands.commodities()
    return ArcIds(net.reconf_arc(*c) for c in commodities).loads(
        np.arange(len(commodities)), np.array([demands.get(*c) for c in commodities])
    )


def _node_cut_bound(
    net: HybridNetwork, demands: DemandMatrix, routing: RoutingModel
) -> Callable[[Matching], float]:
    """A lower bound on a matching's least load under ``routing``, split or
    unsplit.

    Every unit of demand out of node v crosses v's out-arcs, so some out-arc
    carries at least out_d(v) / out_cap(v); likewise for the in-arcs.  The
    capacity sums v's positive static arcs, plus its matched reconfigurable
    arc under a non-segregated model.  Under a segregated model the demand
    leaves the offloaded commodities out, and the bound also covers their
    largest load on their own arcs.  x / 0 is infinite for x > 0."""
    commodities = demands.commodities()
    ends = np.array(commodities, dtype=np.intp).reshape(-1, 2)
    amounts = np.array([demands.get(*c) for c in commodities])
    offload = _offload_loads(net, demands)
    static = tuple(a for a in net.static_arcs() if a.capacity > 0)

    def cut(arcs: tuple[DirectedLink, ...], kept: np.ndarray) -> float:
        arc_ends = np.array([(a.tail, a.head) for a in arcs], dtype=np.intp).reshape(-1, 2)
        worst = 0.0
        for side in (0, 1):  # out of each node, then into it
            flow = np.bincount(ends[kept, side], amounts[kept], minlength=net.n)
            cap = np.bincount(arc_ends[:, side], [a.capacity for a in arcs], minlength=net.n)
            ratio = np.divide(flow, cap, out=np.where(flow > 0, math.inf, 0.0), where=cap > 0)
            worst = max(worst, float(ratio.max(initial=0.0)))
        return worst

    def bound(matching: Matching) -> float:
        if not routing.segregated:
            return cut(static + matching.arcs(net), np.ones(len(commodities), dtype=bool))
        offloaded = np.array([c in matching for c in commodities], dtype=bool)
        return max(float(offload[offloaded].max(initial=0.0)), cut(static, ~offloaded))

    return bound


def _warm_price(
    net: HybridNetwork, demands: DemandMatrix, routing: RoutingModel
) -> Callable[[Matching], float | None]:
    """A matching's exact splittable load, or None when some demand has no
    route; every price re-solves one LP from its last basis.

    The LP holds every commodity.  Under ``ss`` it routes over the static
    arcs, a matched commodity's sink row drops its demand, and the price also
    covers the load d/cap on its reconfigurable arc.  Under ``sn`` every
    candidate reconfigurable arc of positive capacity is a column, and an
    inactive one is capped at 0.
    """
    arcs = tuple(a for a in net.static_arcs() if a.capacity > 0)
    if not routing.segregated:
        pairs = itertools.combinations(range(net.n), 2)
        arcs += tuple(a for i, j in pairs for a in Matching([(i, j)]).arcs(net) if a.capacity > 0)
    problem = build_mcmf_lp(arcs, demands)
    if problem.trivially_optimal:
        return lambda matching: 0.0
    lp = problem.lp
    commodities = demands.commodities()
    sink_rows = problem.sink_rows(commodities)
    demand = lp.row_lower[sink_rows].copy()
    offload = _offload_loads(net, demands)
    block_starts = 1 + np.arange(len(problem.sources)) * len(problem.arcs)
    arc_columns: dict[tuple[NodeId, NodeId], list[int]] = {}  # every source's, per pair
    for a, arc in enumerate(problem.arcs):
        if arc.kind is LinkKind.RECONFIGURABLE:
            arc_columns.setdefault(pair_key(arc.tail, arc.head), []).extend(block_starts + a)

    def price(matching: Matching) -> float | None:
        offloaded = 0.0
        if routing.segregated:
            matched = np.array([pair_key(*c) in matching for c in commodities])
            lp.row_lower[sink_rows] = np.where(matched, 0.0, demand)
            offloaded = float(np.max(offload[matched], initial=0.0))
        for pair, columns in arc_columns.items():
            lp.col_upper[columns] = np.inf if pair in matching else 0.0
        result = solve_simplex(lp)
        if result.status is LpStatus.INFEASIBLE:
            return None
        return max(offloaded, result.objective * problem.demand_scale)

    return price


def _enumerate_matchings(pairs: list[tuple[NodeId, NodeId]], maximal_only: bool = False):
    """Every matching over ``pairs`` (only the maximal ones if ``maximal_only``)
    in one fixed order; a branch is cut once a pair it skipped has both ends
    free and no later pair touches either."""
    pairs = sorted(pairs)
    last = {}  # the position of the last pair at each node
    for k, (i, j) in enumerate(pairs):
        last[i] = last[j] = k

    def extend(index: int, chosen: list, used: set, skipped: list):
        while index < len(pairs) and not used.isdisjoint(pairs[index]):
            index += 1  # a pair at a matched node is covered, never chosen
        if any(end < index and i not in used and j not in used for end, i, j in skipped):
            return
        if index == len(pairs):
            yield Matching(chosen)
            return
        i, j = pairs[index]
        skip = [(max(last[i], last[j]), i, j)] if maximal_only else []
        yield from extend(index + 1, chosen, used, skipped + skip)
        chosen.append((i, j))
        used.update((i, j))
        yield from extend(index + 1, chosen, used, skipped)
        chosen.pop()
        used.difference_update((i, j))

    yield from extend(0, [], set(), [])


def _unsplittable_cost(
    net: HybridNetwork, demands: DemandMatrix, matching: Matching, spec: EvalSpec
) -> tuple[Flow | None, float]:
    """Exact unsplittable routing of one matching and its load: every
    assignment of one simple path per residual commodity is tried.  None and
    infinity when some commodity has no path."""
    fixed, residual, arcs = _residual_problem(net, demands, matching, spec.routing.segregated)

    menus = []
    for commodity in residual.commodities():
        options = all_simple_paths(arcs, commodity[0], commodity[1], _PATH_ASSIGNMENT_BUDGET)
        if not options:
            return None, math.inf
        menus.append((commodity, residual.get(*commodity), options))
    if math.prod(len(options) for _, _, options in menus) > _PATH_ASSIGNMENT_BUDGET:
        raise InstanceTooLargeError("path-assignment space exceeds the oracle budget")

    assignments = itertools.product(*(range(len(options)) for _, _, options in menus))
    return _cheapest_routing(ArcIds.network(net, matching), fixed, menus, assignments)
