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
    cycles and crumbs over the arcs themselves.

    Cycles are cancelled first (the LP bounds only the net inflow of each
    node, so circulations may pass through any node); the remainder is a
    directed acyclic flow in which every node but the source keeps its
    excess, its net inflow.  Each walk leaves the source along the first
    positive arc in ``arc_order`` and stops at the first node v with
    positive excess; peeling the smaller of its bottleneck and that excess
    yields the path ``((source, v), arcs, amount)`` and zeroes an arc or an
    excess.  A conserved commodity flow therefore yields paths to its sink
    only.  A path of at most ``noise`` (the LP solver's absolute feasibility
    slack, which rides on the whole problem's demand scale), or of at most
    1e-7 of the largest arc flow, is a numerical crumb and is returned apart
    from the paths.  A tiny leftover that reaches no sink is dropped; a
    substantial imbalance still raises.
    """
    tails, heads, ranks = arcs.ends
    magnitude = max(links.values(), default=0.0)
    eps = _EPS * max(1.0, magnitude)
    crumb = max(_CRUMB * max(1.0, magnitude), noise)
    residual = {a: v for a, v in links.items() if v > eps}
    adjacent: dict[NodeId, list[int]] = {}
    for a in sorted(residual, key=ranks.__getitem__):
        adjacent.setdefault(tails[a], []).append(a)
    paths: list[FlowPath] = []
    cycles: list[tuple[tuple[DirectedLink, ...], float]] = []
    crumbs: list[FlowPath] = []

    def out_arcs(node: NodeId) -> list[int]:
        return [a for a in adjacent.get(node, ()) if a in residual]

    while (cycle := _find_cycle(residual, tails, heads, out_arcs)) is not None:
        amount = min(residual[a] for a in cycle)
        _subtract(residual, cycle, amount, eps)
        cycles.append((tuple(arcs.arcs[a] for a in cycle), amount))

    excess: dict[NodeId, float] = {}
    for a, value in residual.items():
        excess[heads[a]] = excess.get(heads[a], 0.0) + value
        excess[tails[a]] = excess.get(tails[a], 0.0) - value

    # Acyclic now: walk from the source to the first excess, peel, repeat.
    while starts := out_arcs(source):
        walk = [starts[0]]
        node = heads[starts[0]]
        while excess[node] <= eps and (nxt := out_arcs(node)):
            walk.append(nxt[0])
            node = heads[nxt[0]]
        if excess[node] <= eps:
            _drop_binding_crumb(residual, walk, crumb, source)
            continue
        amount = min(excess[node], min(residual[a] for a in walk))
        _subtract(residual, walk, amount, eps)
        excess[node] -= amount
        path = ((source, node), tuple(arcs.arcs[a] for a in walk), amount)
        (paths if amount > crumb else crumbs).append(path)

    for a, value in sorted(residual.items(), key=lambda kv: kv[1]):
        if value > crumb:
            raise NonConservedFlowError(
                f"flow from source {source} leaves residual {value:.3e} on {arcs.arcs[a]!r}"
            )
    return paths, cycles, crumbs


def _find_cycle(residual, tails, heads, out_arcs):
    """First directed cycle in deterministic DFS order, or None."""
    done: set[NodeId] = set()  # no cycle passes through these
    for start in sorted({tails[a] for a in residual}):
        walk: list[int] = []  # the DFS path from start
        at = {start: 0}  # each node on the path -> the index of its arc out
        node = start
        while node not in done:
            arc = next((a for a in out_arcs(node) if heads[a] not in done), None)
            if arc is None:
                done.add(node)
                del at[node]
                node = tails[walk.pop()] if walk else node
            elif heads[arc] in at:
                return tuple(walk[at[heads[arc]] :]) + (arc,)
            else:
                at[heads[arc]] = len(walk) + 1
                walk.append(arc)
                node = heads[arc]
    return None


def _drop_binding_crumb(residual, walk, crumb, source) -> None:
    victim = min(walk, key=lambda a: residual[a])
    if residual[victim] > crumb:
        raise NonConservedFlowError(
            f"flow from source {source} dead-ends with residual "
            f"{residual[victim]:.3e}"
        )
    del residual[victim]


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