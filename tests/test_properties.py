"""Hypothesis properties of the solvers on small random instances.

Networks have at most seven nodes and a connected static topology; every
capacity and demand is drawn from {1, 2, 3}.  One property instead draws up
to ten nodes, capacities from 0.5 to 1000 and demands over eight decades.
The properties hold for any correct LP formulation and any path
decomposition, so they guard changes to either.  Demand files and seeded solves get a round trip and a repeat,
and the batched rounding draws are held to one ``Generator.choice`` call per commodity.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfnet.evaluation import EvalSpec, RoutingModel, _best_rounding, brute_force_opt
from reconfnet.lp import build_mcmf_lp, build_mcrn_lp, solve_lp, solver_noise
from reconfnet.model import DemandMatrix, HybridNetwork, pair_key
from reconfnet.segregated import solve_single_source_ss, solve_ss, solve_us
from reconfnet.workloads import load_trace, write_demands

from .oracles import (
    cold_matching_minimum,
    enumerate_matchings,
    exhaustive_unsplittable_congestion,
    path_lp_congestion,
)

UNIT = st.sampled_from([1.0, 2.0, 3.0])


@st.composite
def instances(
    draw, max_n: int = 7, max_demands: int | None = None
) -> tuple[HybridNetwork, DemandMatrix]:
    """A random spanning tree plus extra links, some reconfigurable
    overrides, and up to 2n (or ``max_demands``) demands between distinct
    nodes."""
    n = draw(st.integers(3, max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=n))
    static = [(u, v, draw(UNIT), draw(UNIT)) for u, v in tree + extra]
    overrides = draw(st.dictionaries(st.sampled_from(pairs), st.tuples(UNIT, UNIT), max_size=n))
    net = HybridNetwork.build(n, static, draw(UNIT), overrides)
    size = 2 * n if max_demands is None else max_demands
    entries = draw(st.dictionaries(st.sampled_from(pairs), UNIT, min_size=1, max_size=size))
    return net, DemandMatrix(entries)


def _assert_serves_demands_exactly(flow, demands: DemandMatrix) -> None:
    assert set(flow.by_commodity) <= set(demands.commodities())
    for commodity in demands.commodities():
        d = demands.get(*commodity)
        delivered = math.fsum(amount for c, _, amount in flow.paths if c == commodity)
        assert delivered == pytest.approx(d, rel=1e-9, abs=1e-9)
        assert flow.net_outflow(commodity, commodity[0]) == pytest.approx(d, rel=1e-9, abs=1e-9)
        assert flow.conservation_residual(commodity) <= 1e-9 * max(1.0, d)


@given(instance=instances())
def test_ss_load_lies_between_the_bound_and_twice_the_bound(instance) -> None:
    net, demands = instance
    result = solve_ss(net, demands)
    assert result.lp_bound - 1e-7 <= result.max_load
    assert result.max_load <= 2.0 * result.lp_bound * (1 + 1e-9) + 1e-7


@given(instance=instances())
def test_ss_and_us_flows_serve_every_demand_and_conserve_flow(instance) -> None:
    net, demands = instance
    stage1 = solve_ss(net, demands)
    _assert_serves_demands_exactly(stage1.flow, demands)
    _assert_serves_demands_exactly(solve_us(net, demands, trials=2, stage1=stage1).flow, demands)


@st.composite
def wide_range_instances(draw) -> tuple[HybridNetwork, DemandMatrix]:
    """Capacities from {0.5, 1, 10, 1000}, some reconfigurable directions
    dead, and demands that span at least eight decades."""
    n = draw(st.integers(4, 10))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    capacity = st.sampled_from([0.5, 1.0, 10.0, 1000.0])
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=n))
    static = [(u, v, draw(capacity), draw(capacity)) for u, v in tree + extra]
    reconf = st.tuples(st.sampled_from([0.0, 0.5, 5.0]), st.sampled_from([0.0, 0.5, 5.0]))
    overrides = draw(st.dictionaries(st.sampled_from(pairs), reconf, max_size=n))
    net = HybridNetwork.build(n, static, draw(capacity), overrides)
    commodities = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2 * n, unique=True))
    low = 10 ** draw(st.floats(-3, -2))
    values = [low, low * 10 ** draw(st.floats(8, 9))]
    values += [10 ** draw(st.floats(-3, 6)) for _ in commodities[2:]]
    return net, DemandMatrix({c: float(f"{d:.6g}") for c, d in zip(commodities, values)})


@settings(max_examples=60)
@given(instance=wide_range_instances())
def test_demands_over_eight_decades_are_served_within_twice_the_bound(instance) -> None:
    net, demands = instance
    stage1 = solve_ss(net, demands)
    # The LP meets each demand row only within its tolerance, so up to the
    # solver noise of a demand can ride outside the LP flow that the 2x
    # argument covers; an arc may carry all of it beyond twice the bound.
    noise = solver_noise(demands.max_demand())
    outside = math.fsum(min(d, noise) for d in demands.entries.values())
    slack = outside / min(a.capacity for a in net.static_arcs())
    assert stage1.max_load <= 2.0 * stage1.lp_bound * (1 + 1e-9) + slack
    _assert_serves_demands_exactly(stage1.flow, demands)
    _assert_serves_demands_exactly(solve_us(net, demands, trials=2, stage1=stage1).flow, demands)


@given(instance=instances())
def test_every_finite_row_bound_lies_in_the_unit_interval(instance) -> None:
    # the residual check's tolerance is absolute because of this
    net, demands = instance
    for problem in (build_mcrn_lp(net, demands), build_mcmf_lp(net.static_arcs(), demands)):
        bounds = np.concatenate([problem.lp.row_lower, problem.lp.row_upper])
        finite = bounds[np.isfinite(bounds)]
        assert np.all((finite >= 0.0) & (finite <= 1.0))


@given(instance=instances())
def test_mcmf_objective_equals_the_path_oracle(instance) -> None:
    net, demands = instance
    solution = solve_lp(build_mcmf_lp(net.static_arcs(), demands))
    assert solution.optimal
    oracle = path_lp_congestion(net.static_arcs(), demands)
    assert solution.objective == pytest.approx(oracle, rel=1e-7, abs=1e-9)


@settings(max_examples=40)
@given(instance=instances(max_n=6))
def test_enumerated_optima_equal_the_least_cold_evaluation(instance) -> None:
    net, demands = instance
    for routing in (RoutingModel.SS, RoutingModel.SN):
        spec = EvalSpec(routing)
        _, report = brute_force_opt(net, demands, spec)
        assert report.max_load == pytest.approx(
            cold_matching_minimum(net, demands, spec), rel=1e-9, abs=1e-12
        )
    source = min(demands.commodities())[0]
    single = DemandMatrix({c: d for c, d in demands.entries.items() if c[0] == source})
    oracle = cold_matching_minimum(net, single, EvalSpec(RoutingModel.SS))
    load = solve_single_source_ss(net, single).max_load
    assert load == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@given(instance=instances(max_n=6, max_demands=3))
def test_unsplittable_segregated_optimum_equals_the_exhaustive_oracle(instance) -> None:
    net, demands = instance
    _, report = brute_force_opt(net, demands, EvalSpec(RoutingModel.US))
    oracle = math.inf
    for matching in enumerate_matchings(demands.positive_pairs()):
        offload = [
            d / net.reconf_capacity(*c)
            for c, d in demands.entries.items()
            if pair_key(*c) in matching
        ]
        static = exhaustive_unsplittable_congestion(
            net.static_arcs(), demands.without_pairs(matching.pairs)
        )
        oracle = min(oracle, max(offload + [static]))
    assert report.max_load == pytest.approx(oracle, rel=1e-9, abs=1e-12)


DEMAND = st.floats(1e-3, 1e6).map(lambda x: float(f"{x:.12g}"))  # what the file keeps


@settings(max_examples=30)
@given(
    entries=st.dictionaries(
        st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda p: p[0] != p[1]),
        DEMAND,
        min_size=1,
        max_size=20,
    )
)
def test_demand_file_round_trip_keeps_every_entry(entries, tmp_path_factory) -> None:
    path = tmp_path_factory.mktemp("demands") / "demands.csv"
    write_demands(DemandMatrix(entries), path)
    loaded, _ = load_trace(path, remap=False)
    assert loaded.entries == entries


@settings(max_examples=15)
@given(instance=instances(), seed=st.integers(0, 2**31 - 1))
def test_solve_us_repeats_itself_for_a_fixed_seed(instance, seed) -> None:
    net, demands = instance
    first, second = (solve_us(net, demands, trials=3, seed=seed) for _ in range(2))
    assert first.matching == second.matching
    assert first.flow.paths == second.flow.paths
    assert first.max_load == second.max_load


AMOUNT = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)  # 1e-6 to 1e6, every decade


@settings(max_examples=60)
@given(
    menus=st.lists(st.lists(AMOUNT, min_size=1, max_size=6), min_size=1, max_size=40),
    trials=st.integers(1, 12),
    seed=st.integers(min_value=0),
)
def test_rounding_draws_are_those_of_one_choice_call_per_commodity(menus, trials, seed) -> None:
    """The batched draws equal one ``Generator.choice`` per commodity per
    trial on the same stream, so a numpy whose ``choice`` draws differently
    fails here instead of moving the unsplittable outputs silently."""
    rng = np.random.default_rng(seed)
    weights = [np.array(amounts) for amounts in menus]
    expected = [
        [int(rng.choice(len(w), p=w / w.sum())) for w in weights] for _ in range(trials)
    ]
    paths = [[((0, 1), (), amount) for amount in amounts] for amounts in menus]
    assert list(_best_rounding(paths, trials, seed)) == expected
