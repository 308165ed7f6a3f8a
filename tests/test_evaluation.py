"""Matching evaluation under the four routing models, the single-commodity
uniform-capacity solver, and the exhaustive oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from reconfnet.errors import (
    InstanceTooLargeError,
    NonUniformCapacitiesError,
    NotSingleCommodityError,
)
from reconfnet.evaluation import (
    EvalSpec,
    RoutingModel,
    _enumerate_matchings,
    brute_force_opt,
    eval_matching,
    route_matching,
    solve_single_commodity_uniform,
)
from reconfnet.maxflow import _merge_conflicts, max_flow_with_matching
from reconfnet.model import DemandMatrix, HybridNetwork, Matching
from reconfnet.segregated import solve_ss

from .conftest import random_instance, single_commodity_uniform_instance
from .oracles import (
    enumerate_matchings,
    exhaustive_ss_opt,
    exhaustive_unsplittable_congestion,
    path_lp_congestion,
    segregated_matching_cost,
)


@pytest.fixture
def shortcut_instance():
    net = HybridNetwork.build(3, static=[(0, 1, 1, 1), (1, 2, 1, 1)], reconf_default=1.0)
    demands = DemandMatrix({(0, 2): 2})
    return net, demands, Matching([(0, 2)])


def test_sn_splits_across_shortcut_and_static(shortcut_instance) -> None:
    net, demands, matching = shortcut_instance
    report = eval_matching(net, demands, matching, EvalSpec(routing=RoutingModel.SN))
    assert report.max_load == pytest.approx(1.0, abs=1e-9)


def test_ss_forces_a_single_medium(shortcut_instance) -> None:
    net, demands, matching = shortcut_instance
    report = eval_matching(net, demands, matching, EvalSpec(routing=RoutingModel.SS))
    assert report.max_load == pytest.approx(2.0, abs=1e-9)


def test_un_routes_everything_on_one_path(shortcut_instance) -> None:
    net, demands, matching = shortcut_instance
    report = eval_matching(net, demands, matching, EvalSpec(routing=RoutingModel.UN))
    assert report.max_load == pytest.approx(2.0, abs=1e-9)


def test_empty_matching_collapses_to_static_mcmf() -> None:
    for seed in range(8):
        net, demands = random_instance(seed, n_max=7)
        oracle = path_lp_congestion(net.static_arcs(), demands)
        for routing in (RoutingModel.SS, RoutingModel.SN):
            report = eval_matching(net, demands, Matching(), EvalSpec(routing=routing))
            if math.isinf(oracle):
                assert math.isinf(report.max_load)
            else:
                assert report.max_load == pytest.approx(oracle, abs=1e-7, rel=1e-7)


def test_unroutable_commodity_gives_infinite_sentinel() -> None:
    net = HybridNetwork.build(2, static=[], reconf_default=0.0)
    report = eval_matching(
        net, DemandMatrix({(0, 1): 1}), Matching(), EvalSpec(routing=RoutingModel.SS)
    )
    assert math.isinf(report.max_load)


def test_path_limit_monotone_for_splittable() -> None:
    for seed in range(6):
        net, demands = random_instance(seed, n_max=8)
        spec = lambda k: EvalSpec(routing=RoutingModel.SN, path_limit=k)
        loads = [
            eval_matching(net, demands, Matching(), spec(k)).max_load for k in (1, 2, 3)
        ]
        unrestricted = eval_matching(
            net, demands, Matching(), EvalSpec(routing=RoutingModel.SN)
        ).max_load
        assert loads[0] >= loads[1] - 1e-9
        assert loads[1] >= loads[2] - 1e-9
        assert loads[2] >= unrestricted - 1e-9


def test_sn_never_worse_than_ss_pointwise() -> None:
    for seed in range(10):
        net, demands = random_instance(seed, n_max=7)
        pairs = demands.positive_pairs()
        for matching in list(enumerate_matchings(pairs))[:8]:
            sn = eval_matching(net, demands, matching, EvalSpec(routing=RoutingModel.SN))
            ss = eval_matching(net, demands, matching, EvalSpec(routing=RoutingModel.SS))
            if math.isinf(ss.max_load):
                continue
            assert sn.max_load <= ss.max_load + 1e-7


def test_un_path_limit_one_uses_shortcut_shortest_path() -> None:
    # 0-1-2 path with shortcut {0,2}: the one-hop shortcut is the shortest
    net = HybridNetwork.build(3, static=[(0, 1, 1, 1), (1, 2, 1, 1)], reconf_default=4.0)
    demands = DemandMatrix({(0, 2): 2})
    report = eval_matching(
        net, demands, Matching([(0, 2)]), EvalSpec(routing=RoutingModel.UN, path_limit=1)
    )
    assert report.max_load == pytest.approx(0.5, abs=1e-9)
    assert report.argmax_link == net.reconf_arc(0, 2)


def test_one_path_routing_builds_one_adjacency(monkeypatch) -> None:
    from reconfnet import paths
    from reconfnet.baselines import greedy_matching
    from reconfnet.workloads import gen_k_regular, gen_pfabric_demands

    net = gen_k_regular(40, 4, seed=1)
    demands = gen_pfabric_demands(40, 40.0, 1.0, seed=2)
    assert len(demands.commodities()) >= 20
    adjacency = paths.adjacency
    built = []

    def counted(arcs):
        built.append(len(arcs))
        return adjacency(arcs)

    monkeypatch.setattr(paths, "adjacency", counted)
    spec = EvalSpec(routing=RoutingModel.UN, path_limit=1)
    assert route_matching(net, demands, greedy_matching(net, demands), spec) is not None
    assert len(built) == 1


def test_us_eval_offloads_and_routes_rest_single_path() -> None:
    net = HybridNetwork.build(3, static=[(0, 1, 1, 1), (1, 2, 1, 1)], reconf_default=1.0)
    demands = DemandMatrix({(0, 2): 2, (0, 1): 1})
    report = eval_matching(
        net, demands, Matching([(0, 2)]), EvalSpec(routing=RoutingModel.US, path_limit=1)
    )
    # (0,2) rides its link at load 2; (0,1) uses the static link at load 1
    assert report.max_load == pytest.approx(2.0, abs=1e-9)


def test_single_commodity_uniform_doubles_capacity() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 1, 1)], reconf_default=1.0)
    matching, report = solve_single_commodity_uniform(net, DemandMatrix({(0, 1): 3}))
    assert matching == Matching([(0, 1)])
    assert report.max_load == pytest.approx(1.5, abs=1e-9)


def test_single_commodity_zero_demand(path_net) -> None:
    matching, report = solve_single_commodity_uniform(path_net, DemandMatrix({}))
    assert matching == Matching([])
    assert report.max_load == 0.0


def test_single_commodity_disconnected_static_uses_direct_link() -> None:
    net = HybridNetwork.build(4, static=[(2, 3, 1, 1)], reconf_default=1.0)
    matching, report = solve_single_commodity_uniform(net, DemandMatrix({(0, 1): 2}))
    assert (0, 1) in matching
    assert report.max_load == pytest.approx(2.0, abs=1e-9)


def test_single_commodity_rejects_multi_commodity(path_net) -> None:
    with pytest.raises(NotSingleCommodityError):
        solve_single_commodity_uniform(path_net, DemandMatrix({(0, 1): 1, (1, 2): 1}))


def test_single_commodity_rejects_nonuniform_capacities() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 2, 1)], reconf_default=1.0)
    with pytest.raises(NonUniformCapacitiesError):
        solve_single_commodity_uniform(net, DemandMatrix({(0, 1): 1}))


def test_matching_search_chains_through_intermediate_components() -> None:
    # static: 0-2, 4-5, 3-1; the best reconfiguration chains two links through
    # the middle island on top of the direct {0,1}, reaching max-flow 2.
    net = HybridNetwork.build(6, static=[(0, 2, 1, 1), (4, 5, 1, 1), (3, 1, 1, 1)])
    units, matching = max_flow_with_matching(net, 0, 1)
    assert units == 2
    matching2, report = solve_single_commodity_uniform(net, DemandMatrix({(0, 1): 2}))
    assert report.max_load == pytest.approx(1.0, abs=1e-9)


def _nodes_of(usage) -> list[int]:
    return [node for pair in {tuple(sorted(p)) for p in usage} for node in pair]


def test_merge_conflicts_splices_a_chain_into_one_pair() -> None:
    usage = {(0, 1), (1, 2), (2, 3)}
    _merge_conflicts(usage)
    assert usage == {(0, 3)}
    assert len(_nodes_of(usage)) == len(set(_nodes_of(usage)))


def test_merge_conflicts_keeps_a_two_way_pair_as_one_pair() -> None:
    usage = {(0, 1), (1, 0), (2, 3)}
    _merge_conflicts(usage)
    assert usage == {(0, 1), (1, 0), (2, 3)}
    assert {tuple(sorted(p)) for p in usage} == {(0, 1), (2, 3)}
    assert len(_nodes_of(usage)) == len(set(_nodes_of(usage)))


@pytest.mark.parametrize(
    "static",
    [
        [(0, 1, 1, 1), (0, 1, 1, 1), (1, 2, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1)],
        [],
    ],
    ids=["parallel-copies", "no-static-links"],
)
@pytest.mark.parametrize("s, t", [(0, 2), (0, 4), (4, 1)])
def test_single_commodity_uniform_matches_sn_oracle(static, s, t) -> None:
    net = HybridNetwork.build(5, static=static, reconf_default=1.0)
    demands = DemandMatrix({(s, t): 3})
    _, report = solve_single_commodity_uniform(net, demands)
    _, oracle = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.SN))
    assert report.max_load == pytest.approx(oracle.max_load, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_single_commodity_uniform_matches_oracle(seed) -> None:
    net, demands = single_commodity_uniform_instance(seed, n_max=6)
    matching, report = solve_single_commodity_uniform(net, demands)
    _oracle_matching, oracle = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.SN))
    assert report.max_load == pytest.approx(oracle.max_load, abs=1e-7)


def test_brute_force_empty_demand(path_net) -> None:
    matching, report = brute_force_opt(path_net, DemandMatrix({}), EvalSpec(routing=RoutingModel.SS))
    assert matching == Matching([])
    assert report.max_load == 0.0


def test_brute_force_rejects_large_instances() -> None:
    net, demands = random_instance(0, n_max=12)
    if net.n <= 8:
        pytest.skip("sampled instance happens to be small")
    with pytest.raises(InstanceTooLargeError):
        brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.SS))


@pytest.mark.parametrize("seed", range(15))
def test_brute_force_ss_agrees_with_independent_oracle(seed) -> None:
    net, demands = random_instance(seed, n_max=6)
    _, oracle = exhaustive_ss_opt(net, demands)
    _, report = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.SS))
    if math.isinf(oracle):
        assert math.isinf(report.max_load)
    else:
        assert report.max_load == pytest.approx(oracle, abs=1e-7)


@pytest.mark.parametrize("seed", range(10))
def test_brute_force_dominates_heuristics(seed) -> None:
    net, demands = random_instance(seed, n_max=7)
    _, report = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.SS))
    result = solve_ss(net, demands)
    assert report.max_load <= result.max_load + 1e-7
    for matching in list(enumerate_matchings(demands.positive_pairs()))[:6]:
        cost = segregated_matching_cost(net, demands, matching)
        assert report.max_load <= cost + 1e-7


def test_brute_force_unsplittable_exhausts_assignments() -> None:
    # two unit commodities over two parallel links: US optimum separates them
    net = HybridNetwork.build(
        3, static=[(0, 1, 1, 1), (0, 1, 1, 1), (2, 0, 1, 1)], reconf_default=0.0
    )
    demands = DemandMatrix({(0, 1): 1, (2, 1): 1})
    _, report = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.US))
    assert report.max_load == pytest.approx(1.0, abs=1e-9)
    _, sn_report = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.UN))
    assert sn_report.max_load == pytest.approx(1.0, abs=1e-9)


def _maximal_by_filter(pairs) -> list[Matching]:
    """Every matching in enumeration order, the non-maximal ones dropped."""
    return [
        m
        for m in _enumerate_matchings(pairs)
        if all(i in m.nodes or j in m.nodes for i, j in pairs)
    ]


@pytest.mark.parametrize("n, expected", [(4, 3), (5, 15), (6, 15), (7, 105), (8, 105)])
def test_maximal_enumeration_of_complete_graph(n, expected) -> None:
    # maximal matchings of K_n: perfect for even n, near-perfect for odd n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    maximal = list(_enumerate_matchings(pairs, maximal_only=True))
    assert len(maximal) == expected
    assert all(len(m) == n // 2 for m in maximal)
    assert maximal == _maximal_by_filter(pairs)


@pytest.mark.parametrize("seed", range(20))
def test_maximal_enumeration_of_random_pair_sets(seed) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    density = rng.uniform(0.1, 0.9)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    maximal = list(_enumerate_matchings(pairs, maximal_only=True))
    assert maximal == _maximal_by_filter(pairs)


@pytest.mark.parametrize("seed", range(8))
def test_brute_force_sn_pruning_keeps_the_optimum(seed) -> None:
    # the oracle prices maximal matchings only; the reference prices every one
    net, demands = random_instance(seed, n_max=6)
    every = [
        path_lp_congestion(list(net.static_arcs()) + list(matching.arcs(net)), demands)
        for matching in enumerate_matchings([(l.u, l.v) for l in net.reconf_links])
    ]
    _, report = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.SN))
    assert report.max_load == pytest.approx(min(every), abs=1e-7)


@pytest.mark.parametrize("seed", range(8))
def test_brute_force_un_pruning_keeps_the_optimum(seed) -> None:
    net, full = random_instance(seed, n_max=6)
    # two commodities keep the path-assignment space of every matching small
    demands = DemandMatrix(dict(list(full.entries.items())[:2]))
    every = [
        exhaustive_unsplittable_congestion(
            list(net.static_arcs()) + list(matching.arcs(net)), demands
        )
        for matching in enumerate_matchings([(l.u, l.v) for l in net.reconf_links])
    ]
    _, report = brute_force_opt(net, demands, EvalSpec(routing=RoutingModel.UN))
    assert report.max_load == pytest.approx(min(every), abs=1e-9)
