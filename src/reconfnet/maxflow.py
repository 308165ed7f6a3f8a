"""Integer max-flow routines for the uniform-capacity special case.

Capacities are expressed in whole units (one unit per parallel link
direction), which keeps augmenting-path flows integral and exact.  A graph is
a pair of ``tails``/``heads`` arrays with one unit arc per entry; parallel
entries add up.
"""

from __future__ import annotations

import numpy as np

from .model import HybridNetwork, Matching, NodeId


def _max_flow(tails: np.ndarray, heads: np.ndarray, s: int, t: int, size: int):
    """Max s-t flow over unit arcs on nodes ``range(size)``: the flow value and
    the flow matrix (units on each arc, negated on its reverse).

    Runs scipy's Edmonds-Karp. The method is fixed because the augmenting
    order decides which maximum flow, and so which matching, comes back.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    units = np.ones(len(tails), dtype=np.int32)  # duplicate entries are summed
    graph = csr_array((units, (tails, heads)), shape=(size, size))
    result = maximum_flow(graph, s, t, method="edmonds_karp")
    return int(result.flow_value), result.flow


def max_flow_with_matching(net: HybridNetwork, s: NodeId, t: NodeId) -> tuple[int, Matching]:
    """Best achievable s-t max-flow over all matchings of candidate links.

    Auxiliary construction: every node u gets a send port and a receive port,
    each connected to u with one unit of capacity, and every ordered port pair
    (send_u, recv_v), u != v, gets a unit arc.  An integral max-flow there
    equals the optimum over matchings: whenever a node's used send partner and
    receive partner differ, the two port arcs can be spliced into one direct
    port arc without losing flow, and repeating this until no node conflicts
    remain leaves a set of used pairs that is a matching.
    """
    n = net.n
    nodes = np.arange(n)
    send, recv = n + 2 * nodes, n + 2 * nodes + 1
    a, b = np.nonzero(~np.eye(n, dtype=bool))  # every ordered pair a != b
    ends = [(link.u, link.v) for link in net.static_links]
    u, v = np.array(ends, dtype=np.intp).reshape(-1, 2).T  # a unit each way per static link

    value, flow = _max_flow(
        np.concatenate([u, v, nodes, recv, send[a]]),
        np.concatenate([v, u, send, nodes, recv[b]]),
        s, t, 3 * n,
    )
    used = flow[send[a], recv[b]] > 0  # ordered pairs whose port arc carries a unit
    usage = set(zip(a[used].tolist(), b[used].tolist()))
    _merge_conflicts(usage)
    matching = Matching({tuple(sorted(p)) for p in usage})

    # The splice argument guarantees the same flow value on the real network.
    i, j = np.array(matching.pairs, dtype=np.intp).reshape(-1, 2).T
    realized, _ = _max_flow(np.concatenate([u, v, i, j]), np.concatenate([v, u, j, i]), s, t, n)
    if realized != value:
        raise AssertionError(
            f"matching extraction lost flow: auxiliary {value}, realized {realized}"
        )
    return value, matching


def _merge_conflicts(usage: set[tuple[int, int]]) -> None:
    """Splice (w, u) + (u, v) into (w, v) until the used pairs form a matching."""
    changed = True
    while changed:
        changed = False
        out_partner = {u: v for (u, v) in usage}
        in_partner = {v: u for (u, v) in usage}
        for u in sorted(out_partner):
            v = out_partner[u]
            w = in_partner.get(u)
            if w is None or w == v:
                continue
            usage.discard((w, u))
            usage.discard((u, v))
            usage.add((w, v))
            changed = True
            break
