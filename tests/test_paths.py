"""Deterministic path enumeration."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfnet import paths
from reconfnet.evaluation import EvalSpec, RoutingModel, eval_matching
from reconfnet.model import DemandMatrix, HybridNetwork, Matching
from reconfnet.paths import all_simple_paths, k_shortest_paths
from reconfnet.workloads import gen_k_regular

from .oracles import best_first_k_shortest_paths


@pytest.fixture
def diamond():
    # 0-1-3 and 0-2-3 plus direct 0-3
    return HybridNetwork.build(
        4,
        static=[(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 1, 1), (2, 3, 1, 1), (0, 3, 1, 1)],
        reconf_default=1.0,
    )


def _nodes(path):
    return (path[0].tail,) + tuple(arc.head for arc in path)


def test_shortest_path_prefers_fewest_hops(diamond) -> None:
    (path,) = k_shortest_paths(diamond.static_arcs(), [(0, 3)], 1)[(0, 3)]
    assert _nodes(path) == (0, 3)


def test_k_shortest_ordered_by_hops_then_lexicographic(diamond) -> None:
    paths = k_shortest_paths(diamond.static_arcs(), [(0, 3)], 3)[(0, 3)]
    assert [_nodes(p) for p in paths] == [(0, 3), (0, 1, 3), (0, 2, 3)]


def test_k_shortest_handles_missing_routes() -> None:
    net = HybridNetwork.build(3, static=[(0, 1, 1, 1)], reconf_default=1.0)
    assert k_shortest_paths(net.static_arcs(), [(0, 2)], 2)[(0, 2)] == []
    assert k_shortest_paths(net.static_arcs(), [(0, 2)], 1)[(0, 2)] == []


def test_k_shortest_distinguishes_parallel_copies() -> None:
    net = HybridNetwork.build(2, static=[(0, 1, 1, 1), (0, 1, 1, 1)], reconf_default=1.0)
    paths = k_shortest_paths(net.static_arcs(), [(0, 1)], 3)[(0, 1)]
    assert len(paths) == 2
    assert {p[0].copy for p in paths} == {0, 1}
    (first,) = k_shortest_paths(net.static_arcs(), [(0, 1)], 1)[(0, 1)]
    assert first == paths[0] and first[0].copy == 0


@st.composite
def multigraphs(draw):
    """Zero to three parallel static copies per pair (so some pairs are
    unreachable), an active matching's reconfigurable arcs alongside them,
    and commodities that repeat sources and include s == t."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    multiplicity = st.sampled_from([0, 0, 0, 1, 2, 3])
    copies = draw(st.lists(multiplicity, min_size=len(pairs), max_size=len(pairs)))
    static = [(u, v, 1.0, 1.0) for (u, v), m in zip(pairs, copies) for _ in range(m)]
    net = HybridNetwork.build(n, static, reconf_default=1.0)
    chosen: list[tuple[int, int]] = []
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=n)):
        if all(i not in p and j not in p for p in chosen):
            chosen.append((i, j))
    arcs = net.static_arcs() + Matching(chosen).arcs(net)
    nodes = st.integers(0, n - 1)
    commodities = draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=2 * n))
    return arcs, commodities


@given(graph=multigraphs(), k=st.sampled_from([1, 2, 3]))
def test_batched_search_equals_one_best_first_search_per_pair(graph, k) -> None:
    arcs, commodities = graph
    found = k_shortest_paths(arcs, commodities, k)
    assert list(found) == list(dict.fromkeys(commodities))
    for src, dst in commodities:
        expected = best_first_k_shortest_paths(arcs, src, dst, k)
        assert found[(src, dst)] == expected  # arcs compare by ends, kind and copy


@st.composite
def sparse_multigraphs(draw):
    """A random spanning forest on up to 14 relabelled nodes plus a few
    chords, so paths run long and some nodes are isolated; one to three
    parallel static copies per link, an active matching's reconfigurable
    arcs alongside them, and commodities between any two nodes."""
    n = draw(st.integers(2, 14))
    label = draw(st.permutations(range(n)))
    nodes = st.integers(0, n - 1)
    links = []
    for v in range(1, n):
        parent = draw(st.integers(-2, v - 1))  # below 0: v roots a new tree
        if parent >= 0:
            links.append((label[parent], label[v]))
    links += draw(st.lists(st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1]), max_size=3))
    copies = st.sampled_from([1, 1, 1, 2, 3])
    static = [(u, v, 1.0, 1.0) for u, v in links for _ in range(draw(copies))]
    net = HybridNetwork.build(n, static, reconf_default=1.0)
    chosen: list[tuple[int, int]] = []
    for i, j in draw(st.lists(st.tuples(nodes, nodes), max_size=3)):
        if i != j and all(i not in p and j not in p for p in chosen):
            chosen.append((i, j))
    arcs = net.static_arcs() + Matching(chosen).arcs(net)
    commodities = draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=n))
    return arcs, commodities


@settings(max_examples=200)
@given(graph=sparse_multigraphs(), k=st.integers(2, 6))
def test_goal_directed_search_equals_exhaustive_search_on_sparse_graphs(graph, k) -> None:
    arcs, commodities = graph
    found = k_shortest_paths(arcs, commodities, k)
    for src, dst in commodities:
        assert found[(src, dst)] == best_first_k_shortest_paths(arcs, src, dst, k)


def _with_isolated_node():
    """``gen_k_regular(24, 4, seed=1)``'s links on 25 nodes: node 24 has none."""
    links = gen_k_regular(24, 4, seed=1).static_links
    return HybridNetwork.build(25, [(l.u, l.v, l.cap_uv, l.cap_vu) for l in links])


def test_unreachable_target_answers_without_searching(monkeypatch) -> None:
    net = _with_isolated_node()
    spec = EvalSpec(RoutingModel.SS, path_limit=3)
    report = eval_matching(net, DemandMatrix({(0, 24): 1.0}), Matching(), spec)
    assert report.max_load == math.inf and report.argmax_link is None
    monkeypatch.setattr(paths, "_MAX_HEAP_POPS", 1)
    assert k_shortest_paths(net.static_arcs(), [(0, 24)], 3) == {(0, 24): []}


def test_search_expands_only_heads_that_lead_towards_the_target(monkeypatch) -> None:
    # The largest of these searches takes 99 pops; one that ignores the
    # distance to the target needs 793.
    monkeypatch.setattr(paths, "_MAX_HEAP_POPS", 200)
    arcs = gen_k_regular(60, 4, seed=100).static_arcs()
    pairs = [(s, t) for s in range(60) for t in range(60) if s != t]
    found = k_shortest_paths(arcs, pairs, 3)
    assert all(len(p) == 3 for p in found.values())


def test_all_simple_paths_complete(diamond) -> None:
    paths = all_simple_paths(diamond.static_arcs(), 0, 3, limit=100)
    assert sorted(_nodes(p) for p in paths) == [(0, 1, 3), (0, 2, 3), (0, 3)]


def test_all_simple_paths_limit_guard(diamond) -> None:
    with pytest.raises(RuntimeError):
        all_simple_paths(diamond.static_arcs(), 0, 3, limit=1)
