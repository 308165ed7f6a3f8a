"""Rounding, rescaling, the two-stage unsplittable solver, and the exact
single-source solver."""

from __future__ import annotations

import math

import pytest

from reconfnet.baselines import greedy_matching, max_weight_matching, oblivious
from reconfnet.errors import InvalidDemandError, NotSingleSourceError
from reconfnet.evaluation import (
    EvalSpec,
    RoutingModel,
    brute_force_opt,
    default_trials,
    eval_matching,
    route_matching,
    solve_single_commodity_uniform,
)
from reconfnet.lp import LpStatus, build_mcrn_lp
from reconfnet.lp.builder import LpSolution
from reconfnet.model import (
    DemandMatrix,
    HybridNetwork,
    LinkKind,
    Matching,
)
from reconfnet.segregated import (
    rescale_flows,
    round_matching,
    solve_single_source_ss,
    solve_ss,
    solve_us,
)
from reconfnet.workloads import gen_k_regular

from .conftest import random_instance, single_source_instance
from .oracles import exhaustive_ss_opt, segregated_matching_cost


def _solution(net, demands, z, flows) -> LpSolution:
    problem = build_mcrn_lp(net, demands)
    return LpSolution(
        status=LpStatus.OPTIMAL, objective=0.0, z=z, flows=flows, problem=problem
    )


def test_round_up_above_half(path_net) -> None:
    solution = _solution(path_net, DemandMatrix({(0, 1): 1}), {(0, 1): 0.6}, {0: {}})
    assert round_matching(solution) == Matching([(0, 1)])


def test_round_down_at_exactly_half(path_net) -> None:
    solution = _solution(path_net, DemandMatrix({(0, 1): 1}), {(0, 1): 0.5}, {0: {}})
    assert round_matching(solution) == Matching([])


def test_round_keeps_matching_valid_under_degree_bound(path_net) -> None:
    demands = DemandMatrix({(0, 1): 1, (0, 2): 1})
    solution = _solution(
        path_net, demands, {(0, 1): 0.51, (0, 2): 0.49}, {0: {}}
    )
    assert round_matching(solution) == Matching([(0, 1)])


@pytest.mark.parametrize(
    "z01, z02, expected",
    [
        # both one ulp above one half: the node-0 degree is 1 + 2 ulp, inside
        # the degree check's tolerance, yet the two pairs are not a matching
        (math.nextafter(0.5, 1.0), math.nextafter(0.5, 1.0), (0, 1)),
        (0.5 + 1e-12, 0.5 + 2e-12, (0, 2)),  # the larger indicator wins the node
    ],
)
def test_round_takes_one_pair_per_node_within_degree_tolerance(
    path_net, z01, z02, expected
) -> None:
    demands = DemandMatrix({(0, 1): 1, (0, 2): 1})
    solution = _solution(path_net, demands, {(0, 1): z01, (0, 2): z02}, {0: {}})
    assert round_matching(solution) == Matching([expected])


def test_rescale_divides_by_one_minus_z(path_net) -> None:
    demands = DemandMatrix({(0, 2): 3})
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    solution = _solution(
        path_net, demands, {(0, 2): 0.4}, {0: {0: 1.8, 2: 1.8}}
    )
    flow = rescale_flows(solution, Matching([]))
    assert flow.net_outflow((0, 2), 0) == pytest.approx(3.0, abs=1e-9)
    assert flow.by_commodity[(0, 2)][a01] == pytest.approx(3.0, abs=1e-9)


def test_rescale_routes_matched_demand_on_reconf_link(path_net) -> None:
    demands = DemandMatrix({(0, 2): 3})
    solution = _solution(
        path_net, demands, {(0, 2): 0.6}, {0: {0: 1.2, 2: 1.2}}
    )
    flow = rescale_flows(solution, Matching([(0, 2)]))
    links = flow.by_commodity[(0, 2)]
    assert set(links) == {path_net.reconf_arc(0, 2)}
    assert links[path_net.reconf_arc(0, 2)] == pytest.approx(3.0)


def test_rescale_identity_when_z_zero(path_net) -> None:
    demands = DemandMatrix({(0, 2): 1})
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    solution = _solution(path_net, demands, {(0, 2): 0.0}, {0: {0: 1.0, 2: 1.0}})
    flow = rescale_flows(solution, Matching([]))
    assert flow.by_commodity[(0, 2)][a01] == pytest.approx(1.0)
    assert flow.by_commodity[(0, 2)][a12] == pytest.approx(1.0)


def test_solve_ss_on_shared_bottleneck_instance(path_net) -> None:
    # oracle value frozen from exhaustive enumeration: OPT = 1
    demands = DemandMatrix({(0, 2): 1, (0, 1): 1})
    _, opt = exhaustive_ss_opt(path_net, demands)
    assert opt == pytest.approx(1.0, abs=1e-9)
    result = solve_ss(path_net, demands)
    assert len([p for p in result.matching.pairs if 0 in p]) <= 1
    assert result.max_load <= 2.0 * opt + 1e-6
    assert result.max_load >= result.lp_bound - 1e-7
    # the relaxation itself is exactly 1 here, and rounding keeps that value
    assert result.lp_bound == pytest.approx(1.0, abs=1e-9)
    assert result.max_load == pytest.approx(1.0, abs=1e-9)


def test_solve_ss_zero_demand(path_net) -> None:
    result = solve_ss(path_net, DemandMatrix({}))
    assert result.max_load == 0.0
    assert result.matching == Matching([])


def test_solve_ss_bipartite_toy_instance_within_two_of_opt() -> None:
    # uniform demands over a bipartite demand graph on 8 nodes
    net, _ = random_instance(11, n_max=8)
    n = net.n
    left = range(0, n // 2)
    right = range(n // 2, n)
    entries = {}
    for a, b in zip(left, right):
        entries[(a, b)] = 2.0
        entries[(b, a)] = 2.0
    demands = DemandMatrix(entries)
    _, opt = exhaustive_ss_opt(net, demands)
    result = solve_ss(net, demands)
    assert result.max_load <= 2.0 * opt + 1e-6


@pytest.mark.parametrize("seed", range(30))
def test_solve_ss_two_approximation_property(seed) -> None:
    net, demands = random_instance(seed, n_max=10)
    result = solve_ss(net, demands)
    assert result.max_load <= 2.0 * result.lp_bound + 1e-6
    assert result.max_load >= result.lp_bound - 1e-7
    # segregation: no commodity touches both static and reconfigurable links
    for commodity, links in result.flow.by_commodity.items():
        kinds = {arc.kind for arc in links if links[arc] > 1e-9}
        assert kinds != {LinkKind.STATIC, LinkKind.RECONFIGURABLE}
    # demands exactly served
    for (i, j) in demands.commodities():
        assert result.flow.net_outflow((i, j), i) == pytest.approx(
            demands.get(i, j), abs=1e-9
        )


def test_solve_ss_deterministic(path_net) -> None:
    demands = DemandMatrix({(0, 2): 1, (0, 1): 1})
    first = solve_ss(path_net, demands)
    second = solve_ss(path_net, demands)
    assert first.matching == second.matching
    assert first.max_load == second.max_load
    assert first.flow.by_commodity == second.flow.by_commodity


def test_solve_us_single_route_is_deterministic(path_net) -> None:
    demands = DemandMatrix({(0, 2): 1})
    zeroed = HybridNetwork.build(
        3, static=[(0, 1, 1, 1), (1, 2, 1, 1)], reconf_default=0.0
    )
    result = solve_us(zeroed, demands, trials=5, seed=1)
    assert result.max_load == pytest.approx(1.0)
    assert len(result.flow.paths) == 1


def test_solve_us_best_of_trials_on_parallel_links() -> None:
    # two parallel links 0-1 and a feeder 2-0; demands (0,1) and (2,1) split
    # half/half in the relaxation, so one rounding round has four equally
    # likely outcomes with congestion in {1, 2}.
    net = HybridNetwork.build(
        3, static=[(0, 1, 1, 1), (0, 1, 1, 1), (2, 0, 1, 1)], reconf_default=0.0
    )
    demands = DemandMatrix({(0, 1): 1, (2, 1): 1})
    seen = set()
    for seed in range(20):
        result = solve_us(net, demands, trials=1, seed=seed)
        assert result.max_load == pytest.approx(1.0) or result.max_load == pytest.approx(2.0)
        seen.add(round(result.max_load, 6))
    assert 1.0 in seen  # best-of-one across a seed sweep reaches the optimum
    best = solve_us(net, demands, trials=20, seed=0)
    assert best.max_load == pytest.approx(1.0)


def test_solve_us_zero_demand(path_net) -> None:
    result = solve_us(path_net, DemandMatrix({}), trials=3, seed=0)
    assert result.max_load == 0.0


def test_solve_us_unsplittable_single_path_per_commodity() -> None:
    for seed in range(10):
        net, demands = random_instance(seed, n_max=8)
        result = solve_us(net, demands, seed=seed)
        per_commodity: dict = {}
        for commodity, arcs, amount in result.flow.paths:
            per_commodity.setdefault(commodity, []).append((arcs, amount))
        for (i, j) in demands.commodities():
            paths = per_commodity[(i, j)]
            assert len(paths) == 1
            assert paths[0][1] == pytest.approx(demands.get(i, j), abs=1e-9)


def test_solvers_never_build_the_per_link_view() -> None:
    # a Flow is its paths; the per-commodity link values are for readers only
    net = gen_k_regular(8, 3, seed=5)
    pairs = [(i, j) for i in range(8) for j in range(8) if i != j]
    demands = DemandMatrix({(i, j): 1.0 + (3 * i + j) % 5 for i, j in pairs})
    stage1 = solve_ss(net, demands)
    stage2 = solve_us(net, demands, stage1=stage1)
    for result in (stage1, stage2):
        assert "by_commodity" not in result.flow.__dict__


def test_solve_us_reproducible_for_seed() -> None:
    net, demands = random_instance(4, n_max=9)
    a = solve_us(net, demands, seed=7)
    b = solve_us(net, demands, seed=7)
    assert a.max_load == b.max_load
    assert a.flow.by_commodity == b.flow.by_commodity


def test_default_trials_scales_with_static_size() -> None:
    net, _ = random_instance(0, n_max=8)
    expected = math.ceil(math.log2(max(len(net.static_links), 2))) + 3
    assert default_trials(net) == expected


def test_single_source_star_example() -> None:
    net = HybridNetwork.build(3, static=[(0, 1, 1, 1), (0, 2, 1, 1)], reconf_default=1.0)
    demands = DemandMatrix({(0, 1): 2, (0, 2): 1})
    result = solve_single_source_ss(net, demands)
    # enumerating by hand: empty -> 2, offload (0,1) -> 2, offload (0,2) -> 2
    assert result.max_load == pytest.approx(2.0, abs=1e-9)
    _, oracle = exhaustive_ss_opt(net, demands)
    assert oracle == pytest.approx(2.0, abs=1e-9)


def test_single_source_offload_dominates_when_reconf_is_fat() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 1, 1)], reconf_default=10.0)
    result = solve_single_source_ss(net, DemandMatrix({(0, 1): 5}))
    assert result.matching == Matching([(0, 1)])
    assert result.max_load == pytest.approx(0.5, abs=1e-9)


def test_single_source_no_demands(path_net) -> None:
    result = solve_single_source_ss(path_net, DemandMatrix({}))
    assert result.max_load == 0.0
    assert result.matching == Matching([])


def test_single_source_rejects_multi_source(path_net) -> None:
    with pytest.raises(NotSingleSourceError):
        solve_single_source_ss(path_net, DemandMatrix({(0, 1): 1, (1, 2): 1}))


@pytest.mark.parametrize("seed", range(25))
def test_single_source_matches_exhaustive_oracle(seed) -> None:
    net, demands = single_source_instance(seed, n_max=7)
    result = solve_single_source_ss(net, demands)
    _, oracle = exhaustive_ss_opt(net, demands)
    assert result.max_load == pytest.approx(oracle, abs=1e-7)
    # cross-check against the in-package oracle too
    _, report = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.SS))
    assert report.max_load == pytest.approx(oracle, abs=1e-7)


def test_matching_cost_helper_agrees_with_solver_output(path_net) -> None:
    demands = DemandMatrix({(0, 2): 1, (0, 1): 1})
    result = solve_ss(path_net, demands)
    priced = segregated_matching_cost(path_net, demands, result.matching)
    assert result.max_load >= priced - 1e-9  # solver flow cannot beat exact pricing


def _us_after_stage1(net, demands):
    return solve_us(net, demands, stage1=solve_ss(net, DemandMatrix({(0, 1): 1})))


def _then_eval(choose, spec):
    return lambda net, demands: eval_matching(net, demands, choose(net, demands), spec)


SS, US, SN, UN = RoutingModel.SS, RoutingModel.US, RoutingModel.SN, RoutingModel.UN
ENTRY_POINTS = {
    "solve_ss": solve_ss,
    "solve_us": solve_us,
    "solve_us-stage1": _us_after_stage1,
    "solve_single_source_ss": solve_single_source_ss,
    **{
        f"eval_matching-{m.value}": _then_eval(lambda net, demands: Matching(), EvalSpec(m))
        for m in RoutingModel
    },
    "eval_matching-un-path1": _then_eval(lambda net, demands: Matching(), EvalSpec(UN, 1)),
    "greedy-then-eval": _then_eval(greedy_matching, EvalSpec(SS, 3)),
    "mwm-then-eval": _then_eval(max_weight_matching, EvalSpec(SS)),
    "route_matching": lambda net, demands: route_matching(net, demands, Matching(), EvalSpec(SS)),
    **{
        f"brute_force_opt-{m.value}": lambda net, demands, m=m: brute_force_opt(net, demands, EvalSpec(m))
        for m in (SS, SN, US)
    },
    "oblivious": lambda net, demands: oblivious(net, demands, EvalSpec(SS)),
    "solve_single_commodity_uniform": solve_single_commodity_uniform,
    "build_mcrn_lp": build_mcrn_lp,
}


@pytest.mark.parametrize("solver", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_solvers_reject_demand_endpoint_outside_network(solver) -> None:
    net = gen_k_regular(6, 3, seed=1)
    with pytest.raises(InvalidDemandError, match=r"\(0, 9\)"):
        solver(net, DemandMatrix({(0, 9): 1}))


@pytest.mark.parametrize("seed", range(8))
def test_solve_us_agrees_with_us_evaluation_of_its_matching(seed) -> None:
    # stage 2 of solve_us is route_matching under us: same trials, same seed,
    # same load
    net, demands = random_instance(seed, n_max=10)
    trials = 2 + seed % 3
    result = solve_us(net, demands, trials=trials, seed=seed)
    spec = EvalSpec(routing=RoutingModel.US, trials=trials, seed=seed)
    assert eval_matching(net, demands, result.matching, spec).max_load == result.max_load


@pytest.mark.parametrize("seed", range(8))
def test_single_source_agrees_with_ss_evaluation_of_its_matching(seed) -> None:
    net, demands = single_source_instance(seed, n_max=8)
    result = solve_single_source_ss(net, demands)
    spec = EvalSpec(routing=RoutingModel.SS)
    assert eval_matching(net, demands, result.matching, spec).max_load == result.max_load


def test_demand_a_few_times_the_solver_noise_is_served() -> None:
    # the LP routes (1, 5) only in pieces below the solver noise (1e-6 x
    # 7206.79), so every one is dropped as a crumb, yet its demand exceeds
    # that noise: the solvers once raised NonConservedFlowError here
    net = HybridNetwork.build(
        10,
        [(0, 2, 1, 1), (0, 6, 1, 1), (0, 9, 1, 1), (1, 2, 1, 1), (1, 7, 1, 1), (1, 9, 1, 1),
         (2, 7, 1, 1), (3, 4, 10, 1), (3, 5, 1, 1), (3, 6, 1, 1000), (4, 5, 1, 1),
         (4, 8, 10, 1), (5, 8, 1, 1), (6, 9, 1, 1), (7, 8, 1, 1)],
        reconf_default=5.0,
    )
    demands = DemandMatrix(
        {(1, 2): 7206.79, (1, 5): 0.00755586, (6, 8): 1536.48, (9, 2): 0.00747911}
    )
    stage1 = solve_ss(net, demands)
    for result in (stage1, solve_us(net, demands, stage1=stage1)):
        for commodity, d in demands.entries.items():
            delivered = math.fsum(a for c, _, a in result.flow.paths if c == commodity)
            assert delivered == pytest.approx(d, rel=1e-12)
            assert result.flow.conservation_residual(commodity) <= 1e-12 * d
    assert stage1.max_load <= 2.0 * stage1.lp_bound


def test_demand_within_solver_noise_is_still_served() -> None:
    # normalised, the sink row of (1, 3) asks for 1e-7, which HiGHS meets
    # within its tolerance without any flow from node 1 to node 3
    net = HybridNetwork.build(
        4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (0, 3, 1, 1)], reconf_default=0.0
    )
    demands = DemandMatrix({(0, 2): 1e7, (1, 3): 1.0})
    stage1 = solve_ss(net, demands)
    for result in (stage1, solve_us(net, demands, stage1=stage1)):
        for commodity, d in demands.entries.items():
            delivered = math.fsum(a for c, _, a in result.flow.paths if c == commodity)
            assert delivered == d
            assert result.flow.net_outflow(commodity, commodity[0]) == d
            assert result.flow.conservation_residual(commodity) == 0.0
    assert stage1.max_load <= 2.0 * stage1.lp_bound
