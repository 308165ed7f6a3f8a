"""Domain-type behavior: validation, congestion semantics, classification."""

from __future__ import annotations

import math

import pytest

from reconfnet.errors import (
    FlowOnUnselectedLinkError,
    InvalidDemandError,
    NonConservedFlowError,
    ReconfNetError,
    TopologyParseError,
)
from reconfnet.model import (
    DemandMatrix,
    DemandStructure,
    Flow,
    HybridNetwork,
    Matching,
    classify_demands,
    congestion_of,
    read_topology,
    validate_network,
    write_topology,
)

from .conftest import random_instance


def test_valid_three_node_path_passes(path_net) -> None:
    assert validate_network(path_net).ok


def test_negative_capacity_reported() -> None:
    net = HybridNetwork.build(3, static=[(0, 1, -1.0, 1.0)], reconf_default=1.0)
    result = validate_network(net)
    assert "NegativeCapacity" in result.codes()


def test_missing_reconfigurable_pair_reported() -> None:
    net = HybridNetwork.build(3, static=[(0, 1, 1, 1)], reconf_default=1.0)
    trimmed = HybridNetwork(
        n=3,
        static_links=net.static_links,
        reconf_links=tuple(l for l in net.reconf_links if (l.u, l.v) != (0, 2)),
    )
    result = validate_network(trimmed)
    assert "IncompleteReconfigurableSet" in result.codes()


def test_self_loop_and_duplicate_reported() -> None:
    net = HybridNetwork.build(2, static=[(0, 0, 1, 1)], reconf_default=1.0)
    doubled = HybridNetwork(
        n=2, static_links=net.static_links, reconf_links=net.reconf_links * 2
    )
    codes = validate_network(doubled).codes()
    assert "SelfLoop" in codes
    assert "DuplicateLink" in codes


def test_parallel_static_links_are_legal_and_addressable() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 1, 1), (0, 1, 2, 2)], reconf_default=1.0)
    assert validate_network(net).ok
    arcs = [a for a in net.static_arcs() if a.tail == 0]
    assert len(arcs) == 2
    assert {a.copy for a in arcs} == {0, 1}
    assert {a.capacity for a in arcs} == {1.0, 2.0}


def test_congestion_zero_flow(path_net) -> None:
    report = congestion_of(path_net, Matching(), Flow.empty())
    assert report.max_load == 0.0


def test_congestion_is_flow_over_capacity() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 2, 2)], reconf_default=1.0)
    arc = net.static_arcs()[0]
    flow = Flow({(0, 1): {arc: 3.0}})
    report = congestion_of(net, Matching(), flow)
    assert report.max_load == pytest.approx(1.5)
    assert report.argmax_link == arc


def test_congestion_two_commodities_share_bottleneck(path_net) -> None:
    # both demands' only static routes go through (0, 1)
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    flow = Flow({(0, 2): {a01: 1.0, a12: 1.0}, (0, 1): {a01: 1.0}})
    report = congestion_of(path_net, Matching(), flow)
    assert report.max_load == pytest.approx(2.0)
    assert report.argmax_link == a01


def test_zero_capacity_with_flow_gives_infinite_sentinel() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 0.0, 1.0)], reconf_default=1.0)
    arc = net.static_arcs()[0]
    report = congestion_of(net, Matching(), Flow({(0, 1): {arc: 0.5}}))
    assert math.isinf(report.max_load)


def test_flow_on_unselected_reconf_link_rejected(path_net) -> None:
    flow = Flow({(0, 2): {path_net.reconf_arc(0, 2): 1.0}})
    with pytest.raises(FlowOnUnselectedLinkError):
        congestion_of(path_net, Matching(), flow)
    report = congestion_of(path_net, Matching([(0, 2)]), flow)
    assert report.max_load == pytest.approx(1.0)


def test_conservation_violation_rejected(path_net) -> None:
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    flow = Flow({(0, 2): {a01: 1.0, a12: 1.0 + 5e-9}})
    with pytest.raises(NonConservedFlowError):
        congestion_of(path_net, Matching(), flow)
    fine = Flow({(0, 2): {a01: 1.0, a12: 1.0 + 5e-10}})
    congestion_of(path_net, Matching(), fine)


def test_congestion_scale_covariance(path_net) -> None:
    a01 = path_net.static_arcs()[0]
    a12 = path_net.static_arcs()[2]
    base = Flow({(0, 2): {a01: 1.0, a12: 1.0}})
    scaled = Flow({(0, 2): {a01: 3.0, a12: 3.0}})
    lam1 = congestion_of(path_net, Matching(), base).max_load
    lam3 = congestion_of(path_net, Matching(), scaled).max_load
    assert lam3 == pytest.approx(3.0 * lam1)


def test_congestion_capacity_contravariance() -> None:
    for alpha in (0.5, 2.0, 4.0):
        net = HybridNetwork.build(2, static=[(0, 1, alpha, alpha)], reconf_default=1.0)
        arc = net.static_arcs()[0]
        lam = congestion_of(net, Matching(), Flow({(0, 1): {arc: 1.0}})).max_load
        assert lam == pytest.approx(1.0 / alpha)


def test_classify_single_commodity_uniform() -> None:
    klass = classify_demands(DemandMatrix({(1, 2): 5}))
    assert klass.structure is DemandStructure.SINGLE_COMMODITY
    assert klass.uniform


def test_classify_single_source_uniform() -> None:
    klass = classify_demands(DemandMatrix({(1, 2): 5, (1, 3): 5}))
    assert klass.structure is DemandStructure.SINGLE_SOURCE
    assert klass.uniform


def test_classify_single_destination_nonuniform() -> None:
    klass = classify_demands(DemandMatrix({(1, 2): 5, (3, 2): 4}))
    assert klass.structure is DemandStructure.SINGLE_DESTINATION
    assert not klass.uniform


def test_classify_multi() -> None:
    klass = classify_demands(DemandMatrix({(1, 2): 5, (3, 4): 4}))
    assert klass.structure is DemandStructure.MULTI


def test_matching_rejects_shared_endpoint() -> None:
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 2)])


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


def test_topology_reader_fills_missing_reconf_pairs(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("# comment\nS 0 1 1 1\nS 1 2 1 1\nR 0 2 5 6\n")
    net = read_topology(path, default_reconf_capacity=2.5)
    assert net.n == 3
    assert net.reconf_capacity(0, 2) == 5.0
    assert net.reconf_capacity(2, 0) == 6.0
    assert net.reconf_capacity(0, 1) == 2.5
    assert validate_network(net).ok


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_demand_matrix_rejects_non_finite(value) -> None:
    with pytest.raises(InvalidDemandError, match="non-finite"):
        DemandMatrix({(0, 3): value, (1, 2): 1})


def test_topology_reader_honours_nodes_header(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("# nodes=5\nS 0 1 1 1\n")
    net = read_topology(path)
    assert net.n == 5
    assert validate_network(net).ok


def test_topology_reader_rejects_node_beyond_header(tmp_path) -> None:
    path = tmp_path / "topo.txt"
    path.write_text("# nodes=3\nS 0 1 1 1\nR 1 3 2 2\n")
    with pytest.raises(TopologyParseError, match="line 3") as caught:
        read_topology(path)
    assert isinstance(caught.value, ReconfNetError)
