"""Solvers for segregated routing: LP rounding and the exact restricted case.

The splittable solver relaxes the joint matching/routing program, rounds
every indicator above one half up, and rescales the remaining static flows by
1/(1 - z); the degree rows guarantee the rounded indicators form a matching
and each static load at most doubles.  The unsplittable solver reuses that
matching, then applies randomized path rounding to the residual
multicommodity flow and keeps the best of a configurable number of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDemandError, NotSingleSourceError
from .lp import (
    LpSolution,
    build_mcmf_lp,
    build_mcrn_lp,
    decompose_commodity,
    scale_paths_to,
    solve_lp,
    solver_noise,
)
from .model import (
    CongestionReport,
    DemandMatrix,
    DemandStructure,
    Flow,
    FlowPath,
    HybridNetwork,
    Matching,
    classify_demands,
    congestion_of,
    ensure_valid,
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
    selected: list[tuple[int, int]] = []
    used: set[int] = set()
    for pair, value in sorted(solution.z.items(), key=lambda item: (-item[1], item[0])):
        if value <= 0.5:
            break
        if used.isdisjoint(pair):
            selected.append(pair)
            used.update(pair)
    return Matching(selected)


def rescale_flows(solution: LpSolution, matching: Matching) -> Flow:
    """Turn a fractional solution plus a rounded matching into a real flow.

    Matched commodities ride their own reconfigurable link unsplit.  Every
    other commodity keeps its static flow scaled by 1/(1 - z), decomposed
    into paths and trimmed to exact demand (the LP's demand row is one-sided,
    so slight over-delivery is possible and must not leak into the flow).
    """
    net_problem = solution.problem
    demands = net_problem.demands
    paths: list[FlowPath] = []
    for commodity in net_problem.commodities:
        i, j = commodity
        d = demands.get(i, j)
        pair = pair_key(i, j)
        if pair in matching:
            arc = _reconf_arc_from_solution(solution, i, j)
            paths.append((commodity, (arc,), d))
            continue
        z = solution.z.get(pair, 0.0)
        if z >= 1.0 - 1e-12:
            raise AssertionError(
                f"indicator for unmatched pair {pair} is {z}; rounding is inconsistent"
            )
        factor = 1.0 / (1.0 - z)
        links = {
            arc: value * factor for arc, value in solution.flows.get(commodity, {}).items()
        }
        noise = solver_noise(net_problem.demand_scale)
        commodity_paths, _cycles = decompose_commodity(commodity, links, noise=noise)
        paths.extend(scale_paths_to(commodity_paths, d, slack=noise))
    return Flow.from_paths(paths)


def _reconf_arc_from_solution(solution: LpSolution, i: int, j: int):
    net = solution.problem.net
    if net is None:
        raise AssertionError("solution problem lost its network reference")
    return net.reconf_arc(i, j)


def solve_ss(net: HybridNetwork, demands: DemandMatrix) -> RoundedSolution:
    """Splittable segregated solver; the output load is within twice the
    fractional optimum."""
    ensure_valid(net)
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


def default_trials(net: HybridNetwork) -> int:
    m = max(len(net.static_links), 2)
    return int(math.ceil(math.log2(m))) + 3


def solve_us(
    net: HybridNetwork,
    demands: DemandMatrix,
    trials: int | None = None,
    seed: int = 0,
    stage1: RoundedSolution | None = None,
) -> RoundedSolution:
    """Unsplittable segregated solver: fix the matching with the splittable
    stage, then round the residual multicommodity flow to single paths.

    Each residual commodity independently samples one path of its fractional
    decomposition with probability proportional to the path amounts; the
    minimum-congestion outcome over ``trials`` rounds wins, ties broken by
    round index.  Reproducible for a fixed seed.
    """
    if stage1 is None:
        stage1 = solve_ss(net, demands)
    matching = stage1.matching

    residual = demands.without_pairs(matching.pairs)
    fixed_paths: list[FlowPath] = []
    for i, j in demands.commodities():
        if pair_key(i, j) in matching:
            fixed_paths.append(((i, j), (net.reconf_arc(i, j),), demands.get(i, j)))

    if residual.is_empty:
        flow = Flow.from_paths(fixed_paths)
        report = congestion_of(net, matching, flow)
        return RoundedSolution(matching, flow, report.max_load, stage1.lp_bound, report)

    problem = build_mcmf_lp(net, residual)
    solution = solve_lp(problem)
    if not solution.optimal:
        raise AssertionError("stage-2 LP infeasible although stage 1 produced a flow")

    choices: list[tuple[tuple[int, int], list[FlowPath], np.ndarray]] = []
    noise = solver_noise(solution.problem.demand_scale)
    for commodity in residual.commodities():
        d = residual.get(*commodity)
        commodity_paths, _cycles = decompose_commodity(
            commodity, solution.flows.get(commodity, {}), noise=noise
        )
        commodity_paths = scale_paths_to(commodity_paths, d, slack=noise)
        if not commodity_paths:
            raise AssertionError(f"no residual paths for commodity {commodity}")
        weights = np.array([amount for (_, _, amount) in commodity_paths])
        probs = weights / weights.sum()
        choices.append((commodity, commodity_paths, probs))

    if trials is None:
        trials = default_trials(net)
    rng = np.random.default_rng(seed)
    best_flow: Flow | None = None
    best_report: CongestionReport | None = None
    for _ in range(max(trials, 1)):
        sampled = list(fixed_paths)
        for commodity, commodity_paths, probs in choices:
            index = int(rng.choice(len(commodity_paths), p=probs))
            _, arcs, _ = commodity_paths[index]
            sampled.append((commodity, arcs, residual.get(*commodity)))
        flow = Flow.from_paths(sampled)
        report = congestion_of(net, matching, flow)
        if best_report is None or report.max_load < best_report.max_load:
            best_report = report
            best_flow = flow
    assert best_flow is not None and best_report is not None
    return RoundedSolution(
        matching, best_flow, best_report.max_load, stage1.lp_bound, best_report
    )


def solve_single_source_ss(net: HybridNetwork, demands: DemandMatrix) -> RoundedSolution:
    """Exact splittable segregated optimum for single-source (or
    single-destination) demands.

    All demand-positive pairs share a node, so a matching can activate at
    most one of them: enumerate the empty matching plus every singleton,
    price each candidate exactly, and keep the best.
    """
    ensure_valid(net)
    if demands.is_empty:
        report = congestion_of(net, Matching(), Flow.empty())
        return RoundedSolution(Matching(), Flow.empty(), 0.0, 0.0, report)
    klass = classify_demands(demands)
    if klass.structure not in (
        DemandStructure.SINGLE_SOURCE,
        DemandStructure.SINGLE_DESTINATION,
        DemandStructure.SINGLE_COMMODITY,
    ):
        raise NotSingleSourceError("demands have neither a single source nor a single destination")

    candidates: list[Matching] = [Matching()]
    for pair in demands.positive_pairs():
        candidates.append(Matching([pair]))

    best: RoundedSolution | None = None
    for matching in candidates:
        outcome = _price_matching_ss(net, demands, matching)
        if outcome is None:
            continue
        flow, report = outcome
        if best is None or report.max_load < best.max_load - 1e-12:
            best = RoundedSolution(matching, flow, report.max_load, report.max_load, report)
    if best is None:
        raise InfeasibleDemandError("no candidate matching can serve the demands")
    return best


def _price_matching_ss(
    net: HybridNetwork, demands: DemandMatrix, matching: Matching
) -> tuple[Flow, CongestionReport] | None:
    """Exact segregated cost of a fixed matching; None when infeasible."""
    paths: list[FlowPath] = []
    for i, j in demands.commodities():
        if pair_key(i, j) in matching:
            paths.append(((i, j), (net.reconf_arc(i, j),), demands.get(i, j)))
    residual = demands.without_pairs(matching.pairs)
    if not residual.is_empty:
        solution = solve_lp(build_mcmf_lp(net, residual))
        if not solution.optimal:
            return None
        noise = solver_noise(solution.problem.demand_scale)
        for commodity in residual.commodities():
            commodity_paths, _cycles = decompose_commodity(
                commodity, solution.flows.get(commodity, {}), noise=noise
            )
            paths.extend(
                scale_paths_to(commodity_paths, residual.get(*commodity), slack=noise)
            )
    flow = Flow.from_paths(paths)
    report = congestion_of(net, matching, flow)
    return flow, report
