"""Integer max-flow routines for the uniform-capacity special case.

Capacities are expressed in whole units (one unit per parallel link
direction), which keeps augmenting-path flows integral and exact.
"""

from __future__ import annotations

from .model import HybridNetwork, Matching, NodeId


def edmonds_karp(
    capacity: dict[int, dict[int, int]], s: int, t: int
) -> tuple[int, dict[int, dict[int, int]]]:
    """Max s-t flow on an integer-capacity digraph given as nested dicts.

    Returns the flow value and the units sent on each arc that carries any.
    Runs scipy's Edmonds-Karp. The method is fixed because the augmenting
    order decides which maximum flow, and so which matching, comes back.
    """
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    arcs = np.array(
        [(u, v, cap) for u, row in capacity.items() for v, cap in row.items() if cap > 0],
        dtype=np.int32,
    ).reshape(-1, 3)
    size = 1 + max(s, t, int(arcs[:, :2].max(initial=0)))
    graph = csr_array((arcs[:, 2], (arcs[:, 0], arcs[:, 1])), shape=(size, size))
    result = maximum_flow(graph, s, t, method="edmonds_karp")
    flow = result.flow.tocoo()
    sent: dict[int, dict[int, int]] = {}
    for u, v, units in zip(flow.row.tolist(), flow.col.tolist(), flow.data.tolist()):
        if units > 0:
            sent.setdefault(u, {})[v] = units
    return int(result.flow_value), sent


def static_unit_capacities(net: HybridNetwork) -> dict[int, dict[int, int]]:
    """Unit counts per directed static pair (parallel copies add up)."""
    caps: dict[int, dict[int, int]] = {}
    for link in net.static_links:
        caps.setdefault(link.u, {})[link.v] = caps.get(link.u, {}).get(link.v, 0) + 1
        caps.setdefault(link.v, {})[link.u] = caps.get(link.v, {}).get(link.u, 0) + 1
    return caps


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
    send = lambda u: n + 2 * u  # noqa: E731 - local index helpers
    recv = lambda u: n + 2 * u + 1  # noqa: E731

    capacity = static_unit_capacities(net)
    for u in range(n):
        capacity.setdefault(u, {})[send(u)] = 1
        capacity.setdefault(recv(u), {})[u] = 1
    for u in range(n):
        for v in range(n):
            if u != v:
                capacity.setdefault(send(u), {})[recv(v)] = 1

    value, used = edmonds_karp(capacity, s, t)

    # Virtual usage: ordered pairs (u, v) whose port arc carries one unit.
    usage: set[tuple[int, int]] = set()
    for u in range(n):
        for v in range(n):
            if u != v and used.get(send(u), {}).get(recv(v), 0) > 0:
                usage.add((u, v))

    _merge_conflicts(usage)

    pairs = {tuple(sorted(p)) for p in usage}
    matching = Matching(pairs)

    # The splice argument guarantees the same flow value on the real network.
    check = dict(static_unit_capacities(net))
    for i, j in matching.pairs:
        check.setdefault(i, {})[j] = check.get(i, {}).get(j, 0) + 1
        check.setdefault(j, {})[i] = check.get(j, {}).get(i, 0) + 1
    realized, _ = edmonds_karp(check, s, t)
    if realized != value:
        raise AssertionError(
            f"matching extraction lost flow: auxiliary {value}, realized {realized}"
        )
    return value, matching


def _merge_conflicts(usage: set[tuple[int, int]]) -> None:
    """Splice (x, u) + (u, y) into (x, y) until the used pairs form a matching."""
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
            if w != v:
                usage.add((w, v))
            changed = True
            break
