"""Domain-type behavior: validation, congestion semantics, classification."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfnet.errors import (
    FlowOnUnselectedLinkError,
    InvalidDemandError,
    InvalidMatchingError,
    InvalidNetworkError,
    NonConservedFlowError,
    ReconfNetError,
    TopologyParseError,
)
from reconfnet.harness import instance_hash
from reconfnet.model import (
    DemandMatrix,
    DemandStructure,
    Flow,
    HybridNetwork,
    Matching,
    StaticLink,
    classify_demands,
    congestion_of,
    read_topology,
    topology_records,
    write_topology,
)
from reconfnet.workloads import gen_k_regular

from .conftest import random_instance


def _codes(caught) -> tuple[str, ...]:
    return tuple(issue.code for issue in caught.value.issues)


def test_valid_three_node_path_passes(path_net) -> None:
    assert path_net.n == 3


def test_negative_capacity_reported() -> None:
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(3, static=[(0, 1, -1.0, 1.0)], reconf_default=1.0)
    assert "NegativeCapacity" in _codes(caught)


def test_self_loop_reported() -> None:
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(2, static=[(0, 0, 1, 1)], reconf_default=1.0)
    assert "SelfLoop" in _codes(caught)
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(2, reconf_overrides={(1, 1): (1.0, 1.0)})
    assert _codes(caught) == ("SelfLoop",)


@pytest.mark.parametrize(
    "static, default",
    [([(0, 1, math.nan, 1.0)], 1.0), ([(0, 1, math.inf, 1.0)], 1.0), ([(0, 1, 1.0, 1.0)], math.inf)],
    ids=["static-nan", "static-inf", "default-inf"],
)
def test_non_finite_capacity_reported(static, default) -> None:
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(3, static=static, reconf_default=default)
    assert _codes(caught) == ("NonFiniteCapacity",)


def test_override_outside_node_range_reported() -> None:
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(3, static=[(0, 1, 1, 1)], reconf_overrides={(-1, 2): (5.0, 5.0)})
    assert _codes(caught) == ("NodeOutOfRange",)


@pytest.mark.parametrize(
    "static, default, code",
    [
        ([(0, 1, 1.0, 1.0), (1, 5, 1.0, 1.0)], 1.0, "NodeOutOfRange"),
        ([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)], math.inf, "NonFiniteCapacity"),
    ],
    ids=["static-link-to-node-5", "default-inf"],
)
def test_no_constructor_yields_a_network_with_a_bad_link(static, default, code) -> None:
    links = tuple(StaticLink(*link) for link in static)
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork(3, links, default)
    assert _codes(caught) == (code,)
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(3, static, reconf_default=default)
    assert _codes(caught) == (code,)


def test_topology_reader_refuses_every_bad_link_at_once(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("S 0 1 1 1\nS 1 1 1 1\nS 1 2 -1 1\nS -1 2 1 1\n")
    with pytest.raises(InvalidNetworkError) as caught:
        read_topology(path)
    assert _codes(caught) == ("SelfLoop", "NegativeCapacity", "NodeOutOfRange")
    path.write_text("S 0 1 1 1\nS 1 2 1 1\n")
    with pytest.raises(InvalidNetworkError) as caught:
        read_topology(path, default_reconf_capacity=math.inf)
    assert _codes(caught) == ("NonFiniteCapacity",)


@pytest.mark.parametrize("capacity", [-1.0, math.inf])
def test_k_regular_generator_refuses_a_bad_capacity(capacity) -> None:
    with pytest.raises(InvalidNetworkError):
        gen_k_regular(6, 3, seed=1, capacity=capacity)


FAULTS = {  # each rewrites one link tuple (u, v, cap_uv, cap_vu) of an n-node network
    "SelfLoop": lambda u, v, cf, cb, n: (u, u, cf, cb),
    "NodeOutOfRange": lambda u, v, cf, cb, n: (u, n + v, cf, cb),
    "NegativeCapacity": lambda u, v, cf, cb, n: (u, v, -cf, cb),
    "NonFiniteCapacity-nan": lambda u, v, cf, cb, n: (u, v, cf, math.nan),
    "NonFiniteCapacity-inf": lambda u, v, cf, cb, n: (u, v, math.inf, cb),
}


@settings(max_examples=60)
@given(
    seed=st.integers(0, 20),
    faults=st.lists(
        st.tuples(st.sampled_from([*FAULTS, "NonFiniteCapacity-default"]), st.integers(0, 8)),
        max_size=3,
        unique_by=lambda fault: fault[1],  # one fault per link
    ),
)
def test_construction_refuses_exactly_the_injected_faults(seed, faults) -> None:
    net = gen_k_regular(6, 3, seed=seed)  # 9 links; every pair uses the default
    links = [(link.u, link.v, link.cap_uv, link.cap_vu) for link in net.static_links]
    default = net.reconf_default
    for fault, index in faults:
        if fault == "NonFiniteCapacity-default":
            default = math.inf
        else:
            links[index] = FAULTS[fault](*links[index], net.n)
    injected = {fault.split("-")[0] for fault, _ in faults}
    if not injected:
        assert HybridNetwork.build(net.n, links, reconf_default=default) == net
        return
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(net.n, links, reconf_default=default)
    assert set(_codes(caught)) == injected


def test_build_normalises_reversed_override_key() -> None:
    net = HybridNetwork.build(3, static=[(0, 1, 1, 1)], reconf_overrides={(2, 0): (5.0, 6.0)})
    assert net.reconf_overrides == (((0, 2), (6.0, 5.0)),)
    assert net.reconf_capacity(0, 2) == 6.0
    assert net.reconf_capacity(2, 0) == 5.0


def test_constructor_normalises_override_keys_and_keeps_the_later_entry() -> None:
    net = HybridNetwork(3, (), 1.0, (((2, 0), (5.0, 6.0)),))
    assert net.reconf_overrides == (((0, 2), (6.0, 5.0)),)
    assert (net.reconf_capacity(0, 2), net.reconf_capacity(2, 0)) == (6.0, 5.0)
    overrides = (((1, 2), (3.0, 4.0)), ((0, 2), (1.0, 2.0)), ((2, 0), (7.0, 8.0)))
    net = HybridNetwork(3, (), 1.0, overrides)
    assert net.reconf_overrides == (((0, 2), (8.0, 7.0)), ((1, 2), (3.0, 4.0)))
    assert net == HybridNetwork.build(3, reconf_overrides={(1, 2): (3.0, 4.0), (0, 2): (8.0, 7.0)})


def test_default_capacity_counts_only_while_some_pair_uses_it() -> None:
    net = HybridNetwork.build(2, reconf_default=9.0, reconf_overrides={(0, 1): (1.0, 2.0)})
    assert (min(net.capacities()), net.c_max) == (1.0, 2.0)
    net = HybridNetwork.build(3, reconf_default=9.0, reconf_overrides={(0, 1): (1.0, 2.0)})
    assert (min(net.capacities()), net.c_max) == (1.0, 9.0)


@pytest.mark.parametrize("bad_pair, code", [((1, 1), "SelfLoop"), ((0, 5), "NodeOutOfRange")])
def test_an_invalid_override_does_not_hide_the_default_a_pair_uses(bad_pair, code) -> None:
    with pytest.raises(InvalidNetworkError) as caught:
        HybridNetwork.build(2, reconf_default=math.inf, reconf_overrides={bad_pair: (1.0, 1.0)})
    assert set(_codes(caught)) == {code, "NonFiniteCapacity"}
    net = HybridNetwork.build(2, reconf_default=math.inf, reconf_overrides={(0, 1): (1.0, 1.0)})
    assert not net.uses_default()


def test_large_network_build_validate_and_c_max_stay_small() -> None:
    n = 1000
    ring = [(i, (i + 1) % n, 1.0, 1.0) for i in range(n)]
    tracemalloc.start()
    try:
        net = HybridNetwork.build(n, ring)
        assert net.c_max == 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_parallel_static_links_are_legal_and_addressable() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 1, 1), (0, 1, 2, 2)], reconf_default=1.0)
    arcs = [a for a in net.static_arcs() if a.tail == 0]
    assert len(arcs) == 2
    assert {a.copy for a in arcs} == {0, 1}
    assert {a.capacity for a in arcs} == {1.0, 2.0}


def test_congestion_zero_flow(path_net) -> None:
    report = congestion_of(path_net, Matching(), Flow())
    assert report.max_load == 0.0


def test_congestion_is_flow_over_capacity() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 2, 2)], reconf_default=1.0)
    arc = net.static_arcs()[0]
    flow = Flow([((0, 1), (arc,), 3.0)])
    report = congestion_of(net, Matching(), flow)
    assert report.max_load == pytest.approx(1.5)
    assert report.argmax_link == arc


def test_congestion_two_commodities_share_bottleneck(path_net) -> None:
    # both demands' only static routes go through (0, 1)
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    flow = Flow([((0, 2), (a01, a12), 1.0), ((0, 1), (a01,), 1.0)])
    report = congestion_of(path_net, Matching(), flow)
    assert report.max_load == pytest.approx(2.0)
    assert report.argmax_link == a01


def test_zero_capacity_with_flow_gives_infinite_sentinel() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 0.0, 1.0)], reconf_default=1.0)
    arc = net.static_arcs()[0]
    report = congestion_of(net, Matching(), Flow([((0, 1), (arc,), 0.5)]))
    assert math.isinf(report.max_load)


def test_flow_on_unselected_reconf_link_rejected(path_net) -> None:
    flow = Flow([((0, 2), (path_net.reconf_arc(0, 2),), 1.0)])
    with pytest.raises(FlowOnUnselectedLinkError):
        congestion_of(path_net, Matching(), flow)
    report = congestion_of(path_net, Matching([(0, 2)]), flow)
    assert report.max_load == pytest.approx(1.0)


def test_conservation_violation_rejected(path_net) -> None:
    a01, a10, a12, a21 = path_net.static_arcs()
    broken = [
        ((0, 2), (a01,), 1.0),  # stops short of the sink
        ((0, 2), (a01, a21), 1.0),  # a gap: 0 -> 1, then 2 -> 1
        ((0, 2), (a12,), 1.0),  # starts at node 1, not at the source
    ]
    for path in broken:
        with pytest.raises(NonConservedFlowError):
            congestion_of(path_net, Matching(), Flow([path]))
    congestion_of(path_net, Matching(), Flow([((0, 2), (a01, a12), 1.0)]))


def test_congestion_scale_covariance(path_net) -> None:
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    base = Flow([((0, 2), (a01, a12), 1.0)])
    scaled = Flow([((0, 2), (a01, a12), 3.0)])
    lam1 = congestion_of(path_net, Matching(), base).max_load
    lam3 = congestion_of(path_net, Matching(), scaled).max_load
    assert lam3 == pytest.approx(3.0 * lam1)


def test_congestion_capacity_contravariance() -> None:
    for alpha in (0.5, 2.0, 4.0):
        net = HybridNetwork.build(2, static=[(0, 1, alpha, alpha)], reconf_default=1.0)
        arc = net.static_arcs()[0]
        lam = congestion_of(net, Matching(), Flow([((0, 1), (arc,), 1.0)])).max_load
        assert lam == pytest.approx(1.0 / alpha)


def test_classify_single_commodity_uniform() -> None:
    assert classify_demands(DemandMatrix({(1, 2): 5})) is DemandStructure.SINGLE_COMMODITY


def test_classify_single_source_uniform() -> None:
    klass = classify_demands(DemandMatrix({(1, 2): 5, (1, 3): 5}))
    assert klass is DemandStructure.SINGLE_SOURCE


def test_classify_single_destination_nonuniform() -> None:
    klass = classify_demands(DemandMatrix({(1, 2): 5, (3, 2): 4}))
    assert klass is DemandStructure.SINGLE_DESTINATION


def test_classify_multi() -> None:
    klass = classify_demands(DemandMatrix({(1, 2): 5, (3, 4): 4}))
    assert klass is DemandStructure.MULTI


def test_classify_no_demands_is_multi() -> None:
    assert classify_demands(DemandMatrix({})) is DemandStructure.MULTI


def test_matching_rejects_shared_endpoint() -> None:
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 2)])
    with pytest.raises(InvalidMatchingError, match="reused"):
        Matching([(0, 1), (1, 2)])
    with pytest.raises(InvalidMatchingError, match="equal endpoints"):
        Matching([(2, 2)])


def test_demand_matrix_rejects_self_and_negative() -> None:
    with pytest.raises(ValueError):
        DemandMatrix({(1, 1): 2.0})
    with pytest.raises(ValueError):
        DemandMatrix({(0, 1): -2.0})


def test_topology_round_trip(tmp_path) -> None:
    net, _ = random_instance(7)
    path = tmp_path / "topo.txt"
    write_topology(net, path)
    loaded = read_topology(path)
    assert loaded.n == net.n
    assert loaded.static_links == net.static_links
    assert loaded.reconf_links == net.reconf_links


@st.composite
def small_networks(draw) -> HybridNetwork:
    """n <= 8, capacities that print exactly, override keys in either order."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    cap = st.integers(0, 40).map(lambda k: k / 4)
    static = draw(st.lists(st.tuples(st.sampled_from(pairs), cap, cap), max_size=10))
    overrides = draw(st.dictionaries(st.sampled_from(pairs), st.tuples(cap, cap), max_size=8))
    return HybridNetwork.build(
        n, [(u, v, cf, cb) for (u, v), cf, cb in static], draw(cap), overrides
    )


@settings(max_examples=30)
@given(net=small_networks())
def test_topology_round_trip_keeps_every_capacity(net, tmp_path_factory) -> None:
    path = tmp_path_factory.mktemp("topo") / "topo.txt"
    write_topology(net, path)
    loaded = read_topology(path)
    assert loaded.n == net.n
    assert loaded.static_links == net.static_links
    for i in range(net.n):
        for j in range(net.n):
            if i != j:
                assert loaded.reconf_capacity(i, j) == net.reconf_capacity(i, j)
    demands = DemandMatrix({(0, 1): 1.0})
    assert instance_hash(loaded, demands) == instance_hash(net, demands)


@settings(max_examples=50)
@given(net=small_networks())
def test_topology_records_are_one_line_per_link_and_pair(net) -> None:
    expected = [f"S {l.u} {l.v} {l.cap_uv:.12g} {l.cap_vu:.12g}\n" for l in net.static_links]
    expected += [
        f"R {i} {j} {net.reconf_capacity(i, j):.12g} {net.reconf_capacity(j, i):.12g}\n"
        for i in range(net.n)
        for j in range(i + 1, net.n)
    ]
    assert "".join(topology_records(net)) == "".join(expected)


def test_topology_reader_swaps_reversed_record_and_keeps_the_later_one(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("# nodes=3\nS 0 1 1 1\nR 2 0 5 6\n")
    net = read_topology(path)
    assert (net.reconf_capacity(0, 2), net.reconf_capacity(2, 0)) == (6.0, 5.0)
    path.write_text("# nodes=3\nR 2 0 5 6\nR 0 2 1 2\nR 2 0 7 8\n")
    net = read_topology(path)
    assert (net.reconf_capacity(0, 2), net.reconf_capacity(2, 0)) == (8.0, 7.0)


def test_topology_reader_fills_missing_reconf_pairs(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("# comment\nS 0 1 1 1\nS 1 2 1 1\nR 0 2 5 6\n")
    net = read_topology(path, default_reconf_capacity=2.5)
    assert net.n == 3
    assert net.reconf_capacity(0, 2) == 5.0
    assert net.reconf_capacity(2, 0) == 6.0
    assert net.reconf_capacity(0, 1) == 2.5


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_demand_matrix_rejects_non_finite(value) -> None:
    with pytest.raises(InvalidDemandError, match="non-finite"):
        DemandMatrix({(0, 3): value, (1, 2): 1})


def test_topology_reader_honours_nodes_header(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("# nodes=5\nS 0 1 1 1\n")
    net = read_topology(path)
    assert net.n == 5


def test_topology_reader_rejects_node_beyond_header(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("# nodes=3\nS 0 1 1 1\nR 1 3 2 2\n")
    with pytest.raises(TopologyParseError, match="line 3") as caught:
        read_topology(path)
    assert isinstance(caught.value, ReconfNetError)
