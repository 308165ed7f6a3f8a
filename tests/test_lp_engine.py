"""LP relaxation: builder structure, solver correctness, decomposition.

Solver results are checked against two independent routes: an exact rational
vertex-enumeration oracle on the canonical six-variable instance, and a
path-formulation LP solved by scipy's HiGHS on randomized instances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from reconfnet.errors import NonConservedFlowError
from reconfnet.lp import (
    LpStatus,
    build_mcmf_lp,
    build_mcrn_lp,
    decompose_commodity,
    solve_lp,
    write_lp,
)
from reconfnet.model import ArcIds, DemandMatrix, Flow, HybridNetwork, Matching, arc_order, pair_key

from .conftest import assert_lp_file_round_trips, random_instance
from .oracles import (
    exhaustive_ss_opt,
    path_lp_congestion,
    rational_vertex_lp,
)


def _block_sizes(problem) -> dict[str, int]:
    return {name: len(rows) for name, rows in problem.row_blocks.items()}


def test_builder_structure_single_commodity(path_net) -> None:
    problem = build_mcrn_lp(path_net, DemandMatrix({(0, 2): 1}))
    assert problem.sources == (0,)
    assert problem.z_pairs == ((0, 2),)  # only the demand-positive pair
    assert _block_sizes(problem) == {
        "flow": 2,  # nodes 1 and 2 of source 0
        "cap": 4,  # two static links, both directions
        "zcap": 1,
        "deg": 2,
    }
    assert problem.lp.col_upper.tolist() == [math.inf] * 5 + [1.0]  # z <= 1 is a bound


def test_builder_empty_demand_is_trivially_optimal(path_net) -> None:
    problem = build_mcrn_lp(path_net, DemandMatrix({}))
    solution = solve_lp(problem)
    assert solution.optimal
    assert solution.objective == 0.0


def test_builder_row_counts_match_closed_form() -> None:
    # 4-node ring, 3 commodities from 2 sources: flow rows = sources*(n-1),
    # flow columns = sources*arcs, one zcap row per commodity.
    net = HybridNetwork.build(
        4, static=[(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (0, 3, 1, 1)], reconf_default=1.0
    )
    demands = DemandMatrix({(0, 2): 1, (0, 3): 1, (1, 3): 2})
    problem = build_mcrn_lp(net, demands)
    assert problem.sources == (0, 1)
    assert _block_sizes(problem) == {"flow": 2 * 3, "cap": 8, "zcap": 3, "deg": 4}
    assert problem.lp.num_vars == 1 + 2 * 8 + 3


def test_rational_oracle_value_on_six_variable_instance(path_net) -> None:
    # vars: lam, z, f_ab, f_ba, f_bc, f_cb; derived once with the exact
    # rational oracle and frozen: the optimum splits half/half, lam = 1/2.
    rows = [
        ({2: 1, 3: -1, 1: 1}, ">=", 1),  # source net outflow + z*d >= d
        ({3: 1, 4: 1, 2: -1, 5: -1}, "==", 0),  # conservation at b
        ({2: 1, 0: -1}, "<=", 0),
        ({3: 1, 0: -1}, "<=", 0),
        ({4: 1, 0: -1}, "<=", 0),
        ({5: 1, 0: -1}, "<=", 0),
        ({1: 1, 0: -1}, "<=", 0),  # reconfigurable direction a->c
        ({1: 1}, "<=", 1),
    ]
    exact = rational_vertex_lp(6, rows)
    assert float(exact) == 0.5

    solution = solve_lp(build_mcrn_lp(path_net, DemandMatrix({(0, 2): 1})))
    assert solution.optimal
    assert solution.objective == pytest.approx(0.5, abs=1e-9)
    assert solution.z[(0, 2)] == pytest.approx(0.5, abs=1e-9)


def test_single_route_forced_when_reconf_capacity_zero() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 2, 2)], reconf_default=0.0)
    solution = solve_lp(build_mcrn_lp(net, DemandMatrix({(0, 1): 1})))
    assert solution.optimal
    assert solution.objective == pytest.approx(0.5, abs=1e-9)
    assert solution.z == {}  # indicator pruned by the dead reconfigurable link


def test_infeasible_when_no_positive_capacity_route() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 0.0, 0.0)], reconf_default=0.0)
    solution = solve_lp(build_mcrn_lp(net, DemandMatrix({(0, 1): 1})))
    assert solution.status is LpStatus.INFEASIBLE


def test_mcmf_parallel_links_split_evenly() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 1, 1), (0, 1, 1, 1)], reconf_default=1.0)
    solution = solve_lp(build_mcmf_lp(net.static_arcs(), DemandMatrix({(0, 1): 1})))
    assert solution.objective == pytest.approx(0.5, abs=1e-9)


def test_mcmf_single_route_load(path_net) -> None:
    solution = solve_lp(build_mcmf_lp(path_net.static_arcs(), DemandMatrix({(0, 2): 2})))
    assert solution.objective == pytest.approx(2.0, abs=1e-9)


def test_mcmf_k4_three_disjoint_routes() -> None:
    net = HybridNetwork.build(
        4,
        static=[(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1), (2, 3, 1, 1)],
        reconf_default=1.0,
    )
    demands = DemandMatrix({(0, 1): 3})
    oracle = path_lp_congestion(net.static_arcs(), demands)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    solution = solve_lp(build_mcmf_lp(net.static_arcs(), demands))
    assert solution.objective == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_mcmf_matches_path_oracle_on_random_instances(seed) -> None:
    net, demands = random_instance(seed, n_max=7)
    oracle = path_lp_congestion(net.static_arcs(), demands)
    solution = solve_lp(build_mcmf_lp(net.static_arcs(), demands))
    if math.isinf(oracle):
        assert solution.status is LpStatus.INFEASIBLE
    else:
        assert solution.optimal
        assert solution.objective == pytest.approx(oracle, abs=1e-7, rel=1e-7)


@pytest.mark.parametrize("seed", range(25))
def test_relaxation_lower_bounds_integral_optimum(seed) -> None:
    net, demands = random_instance(seed, n_max=6)
    _, opt = exhaustive_ss_opt(net, demands)
    solution = solve_lp(build_mcrn_lp(net, demands))
    if math.isinf(opt):
        return
    assert solution.optimal
    assert solution.objective <= opt + 1e-7


def test_capacity_monotonicity() -> None:
    base, demands = random_instance(3, n_max=6)
    solution = solve_lp(build_mcrn_lp(base, demands))
    assert solution.optimal
    for idx in range(len(base.static_links)):
        bumped_links = list(
            (l.u, l.v, l.cap_uv + (2.0 if i == idx else 0.0), l.cap_vu)
            for i, l in enumerate(base.static_links)
        )
        overrides = {(l.u, l.v): (l.cap_uv, l.cap_vu) for l in base.reconf_links}
        bumped = HybridNetwork.build(base.n, bumped_links, reconf_overrides=overrides)
        bumped_solution = solve_lp(build_mcrn_lp(bumped, demands))
        assert bumped_solution.objective <= solution.objective + 1e-9


def test_z_identified_across_directions() -> None:
    net = HybridNetwork.build(3, static=[(0, 1, 3, 3), (1, 2, 3, 3)], reconf_default=2.0)
    demands = DemandMatrix({(0, 2): 2, (2, 0): 1})
    problem = build_mcrn_lp(net, demands)
    assert problem.z_pairs == ((0, 2),)  # one indicator per unordered pair
    solution = solve_lp(problem)
    assert solution.optimal
    assert set(solution.z) == {(0, 2)}


def test_decompose_single_path(path_net) -> None:
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    paths, _cycles, _crumbs = decompose_commodity(0, {0: 1.0, 2: 1.0}, ArcIds(path_net.static_arcs()))
    assert len(paths) == 1
    commodity, arcs, amount = paths[0]
    assert commodity == (0, 2)
    assert arcs == (a01, a12)
    assert amount == pytest.approx(1.0)


def test_decompose_removes_cycle_without_raising_loads(path_net) -> None:
    a01, a10, a12, a21 = path_net.static_arcs()
    original = {a01: 1.3, a10: 0.3, a12: 1.0}
    paths, _cycles, _crumbs = decompose_commodity(
        0, {0: 1.3, 1: 0.3, 2: 1.0}, ArcIds(path_net.static_arcs())
    )
    decomposed = Flow(paths)
    for arc, value in decomposed.by_commodity[(0, 2)].items():
        assert value <= original.get(arc, 0.0) + 1e-9
    assert decomposed.net_outflow((0, 2), 0) == pytest.approx(1.0)
    assert len(paths) == 1 and paths[0][1] == (a01, a12)


def test_decompose_parallel_split() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 1, 1), (0, 1, 1, 1)], reconf_default=1.0)
    arcs = [a for a in net.static_arcs() if a.tail == 0]
    paths, _cycles, _crumbs = decompose_commodity(0, {0: 0.5, 1: 0.5}, ArcIds(arcs))
    assert len(paths) == 2
    assert all(amount == pytest.approx(0.5) for (_, _, amount) in paths)


def _decompose_toy(n: int, flow: dict[tuple[int, int], float], noise: float = 0.0):
    """Decompose ``flow``, keyed by (tail, head), from node 0 over a static
    network of just those links, and return the result with the flow keyed
    by arc."""
    links = sorted({(min(u, v), max(u, v)) for u, v in flow})
    numbered = ArcIds(HybridNetwork.build(n, [(u, v, 1, 1) for u, v in links]).static_arcs())
    by_ends = {(a.tail, a.head): k for k, a in enumerate(numbered.arcs)}
    ids = {by_ends[ends]: value for ends, value in flow.items()}
    by_arc = {numbered.arcs[k]: value for k, value in ids.items()}
    return decompose_commodity(0, ids, numbered, noise=noise), by_arc


def _recomposed(paths, cycles, crumbs) -> dict:
    total: dict = {}
    for arcs, amount in [(p[1], p[2]) for p in paths + crumbs] + cycles:
        for arc in arcs:
            total[arc] = total.get(arc, 0.0) + amount
    return total


def test_decompose_cancels_a_circulation_the_source_never_reaches() -> None:
    flow = {(0, 1): 1.0, (2, 3): 0.5, (3, 4): 0.5, (4, 2): 0.5}
    (paths, cycles, crumbs), by_arc = _decompose_toy(5, flow)
    assert [(p[0], p[2]) for p in paths] == [((0, 1), 1.0)] and crumbs == []
    assert [([(a.tail, a.head) for a in arcs], amount) for arcs, amount in cycles] == [
        ([(2, 3), (3, 4), (4, 2)], 0.5)
    ]
    assert _recomposed(paths, cycles, crumbs) == by_arc


def test_decompose_cancels_a_cycle_on_the_sources_walk() -> None:
    # at node 2 the walk takes 2->1 first (arc_order) and closes 1->2->1
    flow = {(0, 1): 1.0, (1, 2): 1.4, (2, 1): 0.4, (2, 3): 1.0}
    (paths, cycles, crumbs), by_arc = _decompose_toy(4, flow)
    assert [([(a.tail, a.head) for a in arcs], amount) for arcs, amount in cycles] == [
        ([(1, 2), (2, 1)], pytest.approx(0.4))
    ]
    assert len(paths) == 1 and crumbs == []
    commodity, arcs, amount = paths[0]
    assert commodity == (0, 3) and amount == pytest.approx(1.0)
    assert [(a.tail, a.head) for a in arcs] == [(0, 1), (1, 2), (2, 3)]
    assert all(amount <= by_arc[arc] for arc in arcs)
    assert _recomposed(paths, cycles, crumbs) == pytest.approx(by_arc)


def test_decompose_raises_on_flow_that_does_not_leave_the_source() -> None:
    with pytest.raises(NonConservedFlowError, match="leaves residual 5.000e-01"):
        _decompose_toy(4, {(0, 1): 1.0, (2, 3): 0.5})


def test_decompose_drops_a_dead_end_crumb_below_the_noise() -> None:
    # 1e-5 enters node 1 from node 4: within noise 1e-4, above 1e-7 of the flow
    flow = {(0, 1): 1.0, (4, 1): 1e-5, (1, 2): 1.0 + 1e-5}
    (paths, cycles, crumbs), _ = _decompose_toy(5, flow, noise=1e-4)
    assert [(p[0], p[2]) for p in paths] == [((0, 2), 1.0)]
    assert cycles == [] and crumbs == []
    with pytest.raises(NonConservedFlowError):
        _decompose_toy(5, flow)


def _assert_recomposes(solution) -> None:
    """Paths, crumbs and cycles of each id-keyed source flow add up to it."""
    numbered = solution.problem.numbered
    for source, ids in solution.flows.items():
        links = {numbered.arcs[a]: value for a, value in ids.items()}
        paths, cycles, crumbs = decompose_commodity(source, ids, numbered)
        recomposed: dict = {}
        for _, arcs, amount in paths + crumbs:
            for arc in arcs:
                recomposed[arc] = recomposed.get(arc, 0.0) + amount
        for cycle_arcs, amount in cycles:
            for arc in cycle_arcs:
                recomposed[arc] = recomposed.get(arc, 0.0) + amount
        for arc, value in links.items():
            assert recomposed.get(arc, 0.0) == pytest.approx(value, abs=1e-9)
        for arc, value in recomposed.items():
            assert links.get(arc, 0.0) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("seed", range(15))
def test_recomposition_identity_on_lp_flows(seed) -> None:
    net, demands = random_instance(seed, n_max=7)
    solution = solve_lp(build_mcmf_lp(net.static_arcs(), demands))
    if not solution.optimal:
        return
    _assert_recomposes(solution)


@pytest.mark.parametrize("seed", range(15))
def test_recomposition_identity_on_mcrn_lp_flows(seed) -> None:
    net, demands = random_instance(seed, n_max=7)
    solution = solve_lp(build_mcrn_lp(net, demands))
    assert solution.optimal
    _assert_recomposes(solution)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("order", ["sn", "shuffled"])
def test_decomposition_walks_arc_order_whatever_the_ids(seed, order) -> None:
    net, demands = random_instance(seed, n_max=7)
    if order == "sn":  # static arcs, then a matching's: as build_mcmf_lp gets them under sn
        weights = ((pair_key(*c), demands.get(*c)) for c in demands.commodities())
        arcs = net.static_arcs() + Matching.greedy(weights, above=0.0).arcs(net)
    else:
        arcs = list(net.static_arcs())
        np.random.default_rng(seed).shuffle(arcs)
    problem = build_mcmf_lp(arcs, demands)
    solution = solve_lp(problem)
    assert solution.optimal
    assert list(problem.arcs) != sorted(problem.arcs, key=arc_order)
    by_arc = ArcIds(sorted(problem.arcs, key=arc_order))
    for source, ids in solution.flows.items():
        # the same flow, numbered and listed in arc order
        sorted_ids = dict(sorted((by_arc.id[problem.arcs[a]], v) for a, v in ids.items()))
        got = decompose_commodity(source, ids, problem.numbered)
        want = decompose_commodity(source, sorted_ids, by_arc)
        for got_paths, want_paths in zip(got, want):  # paths, cycles, crumbs
            assert [p[:-1] for p in got_paths] == [p[:-1] for p in want_paths]
            assert [p[-1] for p in got_paths] == pytest.approx([p[-1] for p in want_paths])


def test_integrality_gap_two_witness(path_net) -> None:
    # lam_opt = 1/2 fractionally, but every integral choice loads some link
    # to 1: this instance witnesses the factor-2 gap of the relaxation.
    demands = DemandMatrix({(0, 2): 1})
    solution = solve_lp(build_mcrn_lp(path_net, demands))
    _, integral_opt = exhaustive_ss_opt(path_net, demands)
    assert solution.objective == pytest.approx(0.5, abs=1e-9)
    assert integral_opt == pytest.approx(1.0, abs=1e-9)
    assert integral_opt / solution.objective == pytest.approx(2.0, abs=1e-6)


def test_lp_dump_is_parseable_text(tmp_path, path_net) -> None:
    problem = build_mcrn_lp(path_net, DemandMatrix({(0, 2): 1}))
    out = tmp_path / "problem.lp"
    write_lp(problem, out)
    assert problem.z_pairs == ((0, 2),)
    assert_lp_file_round_trips(out, problem)


def test_lp_dump_of_no_demands_round_trips(tmp_path, path_net) -> None:
    problem = build_mcrn_lp(path_net, DemandMatrix({}))
    out = tmp_path / "problem.lp"
    write_lp(problem, out)
    assert_lp_file_round_trips(out, problem)
