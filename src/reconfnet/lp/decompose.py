"""Flow decomposition into simple paths plus discarded cycles."""

from __future__ import annotations

import math

from ..errors import NonConservedFlowError
from ..model import ArcIds, DirectedLink, FlowPath, NodeId

_EPS = 1e-11
_CRUMB = 1e-7  # relative: leftovers below this are solver noise, not flow


def solver_noise(demand_scale: float) -> float:
    """Absolute crumb tolerance for flows decoded from a solved LP."""
    return 1e-6 * max(1.0, demand_scale)


def decompose_commodity(
    source: NodeId,
    links: dict[int, float],
    arcs: ArcIds,
    noise: float = 0.0,
) -> tuple[list[FlowPath], list[tuple[tuple[DirectedLink, ...], float]], list[FlowPath]]:
    """Split one source's arc flows, keyed by id in ``arcs``, into paths,
    cycles and crumbs over the arcs themselves, in one kind of walk.

    Each node's excess, its net inflow, is fixed before any walk.  A walk
    leaves its start along the first positive arc in ``arc_order`` and stops
    at the first of: a node v with positive excess, when it started at the
    source; a node already on the walk, whose closed cycle it cancels by its
    bottleneck (the LP bounds only the net inflow of each node, so
    circulations may pass through any node); a dead end, whose smallest arc
    it drops.  At v, peeling the smaller of the bottleneck and v's excess
    yields the path ``((source, v), arcs, amount)`` and zeroes an arc or an
    excess, so a conserved commodity flow yields paths to its sink only.  A
    path of at most ``noise`` (the LP solver's absolute feasibility slack,
    which rides on the whole problem's demand scale), or of at most 1e-7 of
    the largest arc flow, is a numerical crumb and is returned apart from the
    paths.  Once the source has no arc left, the walk runs from each other
    tail in node order: it cancels the cycles the source never reached and
    drops the tiny leftovers that reach no sink.  Dropping an arc above the
    crumb size raises.
    """
    tails, heads, ranks = arcs.ends
    magnitude = max(links.values(), default=0.0)
    eps = _EPS * max(1.0, magnitude)
    crumb = max(_CRUMB * max(1.0, magnitude), noise)
    residual = {a: v for a, v in links.items() if v > eps}
    excess: dict[NodeId, float] = {}
    for a, value in residual.items():
        excess[heads[a]] = excess.get(heads[a], 0.0) + value
        excess[tails[a]] = excess.get(tails[a], 0.0) - value
    adjacent: dict[NodeId, list[int]] = {}  # each tail's arcs, the next one last
    for a in sorted(residual, key=ranks.__getitem__, reverse=True):
        adjacent.setdefault(tails[a], []).append(a)
    paths: list[FlowPath] = []
    cycles: list[tuple[tuple[DirectedLink, ...], float]] = []
    crumbs: list[FlowPath] = []

    def next_arc(node: NodeId) -> int | None:
        out = adjacent.get(node, [])
        while out and out[-1] not in residual:
            out.pop()
        return out[-1] if out else None

    for start in [source, *sorted(adjacent)]:
        while (arc := next_arc(start)) is not None:
            walk, at = [arc], {start: 0}  # each node on the walk -> its arc out
            node = heads[arc]
            while (
                node not in at
                and (start != source or excess[node] <= eps)
                and (arc := next_arc(node)) is not None
            ):
                at[node] = len(walk)
                walk.append(arc)
                node = heads[arc]
            if node in at:
                cycle = walk[at[node] :]
                amount = min(residual[a] for a in cycle)
                _subtract(residual, cycle, amount, eps)
                cycles.append((tuple(arcs.arcs[a] for a in cycle), amount))
            elif start == source and excess[node] > eps:
                amount = min(excess[node], min(residual[a] for a in walk))
                _subtract(residual, walk, amount, eps)
                excess[node] -= amount
                path = ((source, node), tuple(arcs.arcs[a] for a in walk), amount)
                (paths if amount > crumb else crumbs).append(path)
            else:
                victim = min(walk, key=residual.__getitem__)
                if (value := residual.pop(victim)) > crumb:
                    raise NonConservedFlowError(
                        f"flow from source {source} leaves residual {value:.3e} "
                        f"on {arcs.arcs[victim]!r}"
                    )
    return paths, cycles, crumbs


def _subtract(residual, arcs, amount: float, eps: float) -> None:
    for arc in arcs:
        left = residual[arc] - amount
        if left <= eps:
            del residual[arc]
        else:
            residual[arc] = left


def scale_paths_to(paths: list[FlowPath], target: float, slack: float = 0.0) -> list[FlowPath]:
    """Adjust path amounts to sum to exactly ``target``.

    Over-delivery (the LP demand row is one-sided) scales every amount down,
    which keeps all loads monotone non-increasing.  A deficit can only stem
    from dropped numerical crumbs; it must stay within ``slack`` and is
    repaid on the first path so the perturbation stays at noise level.
    """
    if target <= 0:
        return []
    total = math.fsum(amount for (_, _, amount) in paths)
    if total >= target:
        if total == target:
            return list(paths)
        factor = target / total
        return [(c, arcs, amount * factor) for (c, arcs, amount) in paths]
    deficit = target - total
    if deficit > max(slack, 1e-9 * max(1.0, target)) or not paths:
        raise NonConservedFlowError(
            f"decomposed paths deliver {total}, below the target {target}"
        )
    first_commodity, first_arcs, first_amount = paths[0]
    return [(first_commodity, first_arcs, first_amount + deficit)] + list(paths[1:])