"""Solvers for segregated routing: LP rounding and the exact restricted case.

The splittable solver relaxes the joint matching/routing program, rounds
every indicator above one half up, and rescales the remaining static flows by
1/(1 - z); the degree rows guarantee the rounded indicators form a matching
and each static load at most doubles.  The unsplittable solver reuses that
matching, then routes the leftover demands through ``route_matching`` under
``us``: randomized path rounding of the residual multicommodity flow, best of
a configurable number of rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleDemandError, NotSingleSourceError
from .evaluation import EvalSpec, RoutingModel, offload_paths, route_matching
from .evaluation import _cheapest_routable
from .lp import LpSolution, build_mcrn_lp, solve_lp
from .model import (
    CongestionReport,
    DemandMatrix,
    DemandStructure,
    Flow,
    HybridNetwork,
    Matching,
    check_endpoints,
    classify_demands,
    congestion_of,
    pair_key,
)


@dataclass(frozen=True)
class RoundedSolution:
    """An integral matching plus the flow and congestion it induces."""

    matching: Matching
    flow: Flow
    max_load: float
    lp_bound: float
    report: CongestionReport


def round_matching(solution: LpSolution) -> Matching:
    """Round indicators strictly above one half up, the rest down.

    The comparison is an exact floating-point ``> 0.5``: a tie rounds down.
    The degree rows hold only up to the solver's tolerance, so two pairs that
    share a node can both sit a hair above one half.  Pairs are therefore
    taken by descending indicator, ties broken by pair, and a pair with an
    endpoint already matched is left out.  Its indicator exceeds one half by
    at most that tolerance, so its 1/(1 - z) rescaling exceeds 2 by at most
    a few times the same tolerance.
    """
    return Matching.greedy(solution.z.items(), above=0.5)


def rescale_flows(solution: LpSolution, matching: Matching) -> Flow:
    """Turn a fractional solution plus a rounded matching into a real flow.

    Matched commodities ride their own reconfigurable link unsplit.  Every
    other commodity keeps its static flow scaled by 1/(1 - z), decomposed
    into paths and trimmed to exact demand.
    """
    paths, residual = offload_paths(solution.problem.net, solution.problem.demands, matching)
    for commodity in residual.commodities():
        pair = pair_key(*commodity)
        z = solution.z.get(pair, 0.0)
        if z >= 1.0 - 1e-12:
            raise AssertionError(
                f"indicator for unmatched pair {pair} is {z}; rounding is inconsistent"
            )
        paths.extend(solution.paths(commodity, residual.get(*commodity), 1.0 / (1.0 - z)))
    return Flow(paths)


def solve_ss(net: HybridNetwork, demands: DemandMatrix) -> RoundedSolution:
    """Splittable segregated solver; the output load is within twice the
    fractional optimum."""
    problem = build_mcrn_lp(net, demands)
    solution = solve_lp(problem)
    if not solution.optimal:
        raise InfeasibleDemandError("a positive demand has no route of positive capacity")
    matching = round_matching(solution)
    flow = rescale_flows(solution, matching)
    report = congestion_of(net, matching, flow)
    return RoundedSolution(
        matching=matching,
        flow=flow,
        max_load=report.max_load,
        lp_bound=solution.objective,
        report=report,
    )


def solve_us(
    net: HybridNetwork,
    demands: DemandMatrix,
    trials: int | None = None,
    seed: int = 0,
    stage1: RoundedSolution | None = None,
) -> RoundedSolution:
    """Unsplittable segregated solver: fix the matching with the splittable
    stage, then round the residual multicommodity flow to single paths.

    Stage 2 is ``route_matching`` under ``us``: each residual commodity
    independently samples one path of its fractional decomposition with
    probability proportional to the path amounts; the minimum-congestion
    outcome over ``trials`` rounds wins, ties broken by round index.
    Reproducible for a fixed seed.
    """
    if stage1 is None:
        stage1 = solve_ss(net, demands)
    matching = stage1.matching
    spec = EvalSpec(RoutingModel.US, trials=trials, seed=seed)
    flow = route_matching(net, demands, matching, spec)
    if flow is None:
        raise AssertionError("stage-2 LP infeasible although stage 1 produced a flow")
    report = congestion_of(net, matching, flow)
    return RoundedSolution(matching, flow, report.max_load, stage1.lp_bound, report)


def solve_single_source_ss(net: HybridNetwork, demands: DemandMatrix) -> RoundedSolution:
    """Exact splittable segregated optimum for single-source (or
    single-destination) demands.

    All demand-positive pairs share a node, so a matching can activate at
    most one of them: price the empty matching plus every singleton exactly
    on one warm LP, then route the cheapest with ``route_matching`` under
    ``ss``.  A candidate is priced only while its node-cut bound could still
    beat the cheapest so far (as in ``brute_force_opt``): its exact load is
    at least its bound, so a skipped one could not have won and the answer
    is that of pricing every candidate.
    """
    check_endpoints(net, demands)
    if demands.is_empty:
        report = congestion_of(net, Matching(), Flow())
        return RoundedSolution(Matching(), Flow(), 0.0, 0.0, report)
    if classify_demands(demands) is DemandStructure.MULTI:
        raise NotSingleSourceError("demands have neither a single source nor a single destination")

    candidates = [Matching()] + [Matching([pair]) for pair in demands.positive_pairs()]
    matching = _cheapest_routable(net, demands, candidates, RoutingModel.SS)
    if matching is None:
        raise InfeasibleDemandError("no candidate matching can serve the demands")
    flow = route_matching(net, demands, matching, EvalSpec(RoutingModel.SS))
    report = congestion_of(net, matching, flow)
    return RoundedSolution(matching, flow, report.max_load, report.max_load, report)
