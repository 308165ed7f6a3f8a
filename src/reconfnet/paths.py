"""Deterministic path enumeration over directed-arc graphs.

Paths are sequences of arcs (so parallel static copies stay distinguishable).
All orderings are by (hop count, node sequence, copy indices), which makes
k-shortest-path routing reproducible across runs.  The k > 1 search is
goal-directed, as A* is (Hart, Nilsson & Raphael, 1968): each candidate is
ranked first by its hops plus its head's hop distance to the target, which
leaves the order of the paths that reach the target unchanged.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Sequence

from .errors import InstanceTooLargeError
from .model import DirectedLink, NodeId, arc_order

ArcPath = tuple[DirectedLink, ...]

_MAX_HEAP_POPS = 500_000


def adjacency(arcs: Sequence[DirectedLink]) -> dict[NodeId, list[DirectedLink]]:
    """Out-adjacency with a deterministic neighbor order."""
    adj: dict[NodeId, list[DirectedLink]] = {}
    for arc in arcs:
        adj.setdefault(arc.tail, []).append(arc)
    for out in adj.values():
        out.sort(key=arc_order)
    return adj


def k_shortest_paths(
    arcs: Sequence[DirectedLink], commodities: Iterable[tuple[NodeId, NodeId]], k: int
) -> dict[tuple[NodeId, NodeId], list[ArcPath]]:
    """Up to ``k`` loopless paths for each commodity (s, t), shortest (by
    hops) first, over one adjacency built for all of them.

    Paths come in (hops, node sequence, copy sequence) order, so they are
    the k shortest with deterministic tie-breaking.  For k = 1 this is one
    FIFO breadth-first tree per source over the sorted adjacency: a node of
    layer h is first reached from the layer-(h-1) node whose tree path is
    least, along the least of the parallel arcs, so its tree path is the
    least path; a tree stops growing once it reaches the source's last
    target.  For k > 1 each commodity runs a best-first search directed by
    every node's hop distance to its target, one reverse breadth-first
    search per distinct target, guarded against pathological blowup.
    """
    adj = adjacency(arcs)
    commodities = list(commodities)
    trees, hops_to = {}, {}
    if k == 1:
        targets: dict[NodeId, set[NodeId]] = {}
        for src, dst in commodities:
            targets.setdefault(src, set()).add(dst)
        trees = {src: _bfs_tree(adj, src, dsts) for src, dsts in targets.items()}
    elif k > 1:
        hops_to = _hops_to(arcs, {dst for _, dst in commodities})
    found: dict[tuple[NodeId, NodeId], list[ArcPath]] = {}
    for src, dst in commodities:
        if k < 1 or src == dst:
            found[(src, dst)] = []
        elif k == 1:
            tree = trees[src]
            found[(src, dst)] = [_tree_path(tree, dst)] if dst in tree else []
        else:
            found[(src, dst)] = _best_first(adj, src, dst, k, hops_to[dst])
    return found


def _bfs_tree(
    adj: dict[NodeId, list[DirectedLink]], src: NodeId, targets: set[NodeId]
) -> dict[NodeId, DirectedLink | None]:
    """The arc by which a FIFO search from ``src`` first reaches each node,
    up to the moment it has reached every one of ``targets``."""
    parent: dict[NodeId, DirectedLink | None] = {src: None}
    missing = targets - {src}
    queue = deque([src])
    while queue and missing:
        for arc in adj.get(queue.popleft(), ()):
            if arc.head not in parent:
                parent[arc.head] = arc
                missing.discard(arc.head)
                queue.append(arc.head)
    return parent


def _tree_path(parent: dict[NodeId, DirectedLink | None], dst: NodeId) -> ArcPath:
    path = []
    while (arc := parent[dst]) is not None:
        path.append(arc)
        dst = arc.tail
    return tuple(reversed(path))


def _hops_to(
    arcs: Sequence[DirectedLink], targets: set[NodeId]
) -> dict[NodeId, dict[NodeId, int]]:
    """For each target, the hop distance to it from every node that reaches
    it: one breadth-first search over the reversed arcs."""
    tails: dict[NodeId, set[NodeId]] = {}
    for arc in arcs:
        tails.setdefault(arc.head, set()).add(arc.tail)
    out = {}
    for dst in targets:
        dist = {dst: 0}
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for tail in tails.get(node, ()):
                if tail not in dist:
                    dist[tail] = dist[node] + 1
                    queue.append(tail)
        out[dst] = dist
    return out


def _best_first(
    adj: dict[NodeId, list[DirectedLink]],
    src: NodeId,
    dst: NodeId,
    k: int,
    hops_to: dict[NodeId, int],
) -> list[ArcPath]:
    """Candidate paths keyed (hops + hops_to[head], hops, node sequence, copy
    sequence): the first k arrivals at ``dst`` are the k shortest, in
    (hops, node sequence, copy sequence) order.

    ``hops_to`` ignores the loopless rule, so it never overestimates the hops
    a candidate still needs, and it drops by at most 1 per arc: a child's key
    exceeds its parent's, and every prefix of a path to ``dst`` keys at most
    that path's hops.  So a path to ``dst`` pops after every lesser one, and
    the search skips only heads that cannot reach ``dst``.
    """
    if src not in hops_to:
        return []
    found: list[ArcPath] = []
    heap: list[tuple[int, int, tuple, tuple, NodeId, ArcPath]] = [
        (hops_to[src], 0, (src,), (), src, ())
    ]
    pops = 0
    while heap and len(found) < k:
        pops += 1
        if pops > _MAX_HEAP_POPS:
            raise InstanceTooLargeError("k-shortest-path search exceeded its budget")
        _, hops, nodes, copies, node, path = heapq.heappop(heap)
        if node == dst:
            found.append(path)
            continue
        visited = set(nodes)
        for arc in adj.get(node, ()):
            left = hops_to.get(arc.head)
            if left is None or arc.head in visited:
                continue
            heapq.heappush(
                heap,
                (
                    hops + 1 + left,
                    hops + 1,
                    nodes + (arc.head,),
                    copies + (arc.kind.value, arc.copy),
                    arc.head,
                    path + (arc,),
                ),
            )
    return found


def all_simple_paths(
    arcs: Sequence[DirectedLink], src: NodeId, dst: NodeId, limit: int
) -> list[ArcPath]:
    """Every loopless path from src to dst, in deterministic DFS order.

    Raises InstanceTooLargeError when more than ``limit`` paths exist.
    """
    adj = adjacency(arcs)
    out: list[ArcPath] = []
    stack_path: list[DirectedLink] = []
    visited = {src}

    def visit(node: NodeId) -> None:
        if node == dst:
            out.append(tuple(stack_path))
            if len(out) > limit:
                raise InstanceTooLargeError("simple-path enumeration exceeded its limit")
            return
        for arc in adj.get(node, ()):
            if arc.head in visited:
                continue
            visited.add(arc.head)
            stack_path.append(arc)
            visit(arc.head)
            stack_path.pop()
            visited.discard(arc.head)

    if src != dst:
        visit(src)
    return out

