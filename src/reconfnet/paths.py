"""Deterministic path enumeration over directed-arc graphs.

Paths are sequences of arcs (so parallel static copies stay distinguishable).
All orderings are by (hop count, node sequence, copy indices), which makes
k-shortest-path routing reproducible across runs.
"""

from __future__ import annotations

import heapq
from typing import Sequence

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
    arcs: Sequence[DirectedLink], src: NodeId, dst: NodeId, k: int
) -> list[ArcPath]:
    """Up to ``k`` loopless paths from src to dst, shortest (by hops) first.

    Exhaustive best-first search: candidate paths are popped in
    (hops, node sequence, copy sequence) order, so the first k arrivals at
    ``dst`` are exactly the k shortest with deterministic tie-breaking.
    Adequate for desk-scale graphs; guarded against pathological blowup.
    """
    if k < 1 or src == dst:
        return []
    adj = adjacency(arcs)
    found: list[ArcPath] = []
    heap: list[tuple[int, tuple, tuple, NodeId, ArcPath]] = [(0, (src,), (), src, ())]
    pops = 0
    while heap and len(found) < k:
        pops += 1
        if pops > _MAX_HEAP_POPS:
            raise InstanceTooLargeError("k-shortest-path search exceeded its budget")
        hops, nodes, copies, node, path = heapq.heappop(heap)
        if node == dst:
            found.append(path)
            continue
        visited = set(nodes)
        for arc in adj.get(node, ()):
            if arc.head in visited:
                continue
            heapq.heappush(
                heap,
                (
                    hops + 1,
                    nodes + (arc.head,),
                    copies + (arc.kind.value, arc.copy),
                    arc.head,
                    path + (arc,),
                ),
            )
    return found


def shortest_path(
    arcs: Sequence[DirectedLink], src: NodeId, dst: NodeId
) -> ArcPath | None:
    """The unique (hops, lexicographic) minimal path, or None."""
    best = k_shortest_paths(arcs, src, dst, 1)
    return best[0] if best else None


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

