"""Comparison algorithms: oblivious routing, greedy matching, and exact
maximum-weight matching over demand weights."""

from __future__ import annotations

from .evaluation import EvalSpec, eval_matching
from .model import CongestionReport, DemandMatrix, HybridNetwork, Matching


def oblivious(net: HybridNetwork, demands: DemandMatrix, spec: EvalSpec) -> CongestionReport:
    """Congestion of the static network alone (no reconfigurable links)."""
    return eval_matching(net, demands, Matching(), spec)


def max_weight_matching(net: HybridNetwork, demands: DemandMatrix) -> Matching:
    """Exact maximum-weight matching with pair weight d_ij + d_ji.

    Only pairs with positive weight participate.  General graphs need a
    blossom-style algorithm for exactness; networkx provides one.
    """
    # Deferred: networkx adds about 12 MiB to a process, and this is its
    # only user in the package.
    import networkx as nx

    graph = nx.Graph()
    for i, j in demands.positive_pairs():
        graph.add_edge(i, j, weight=demands.pair_weight(i, j))
    mates = nx.max_weight_matching(graph, maxcardinality=False)
    return Matching(tuple(sorted((min(a, b), max(a, b)) for a, b in mates)))


def greedy_matching(net: HybridNetwork, demands: DemandMatrix) -> Matching:
    """Repeatedly take the compatible pair with the largest demand weight.

    Weights are the static d_ij + d_ji (not congestion-aware); ties break
    lexicographically on the pair.  Stops when no positive-weight pair with
    two free endpoints remains.
    """
    weights = ((pair, demands.pair_weight(*pair)) for pair in demands.positive_pairs())
    return Matching.greedy(weights, above=0.0)
