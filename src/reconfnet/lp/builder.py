"""Compact edge-based LP construction for matching/routing co-optimization.

Variable layout (one block per problem):
  index 0                      lambda, the congestion objective
  1 .. C*A                     per-commodity per-arc flow values
  1 + C*A .. +P                one matching indicator per unordered pair

Both directions of a candidate pair share a single indicator variable, which
enforces their simultaneous activation structurally.  Only pairs whose own
demand is positive (in a direction of positive reconfigurable capacity) get
an indicator; every other indicator is identically zero and is dropped.

Demands are normalized to a unit scale before solving and the result is
scaled back, which keeps the simplex well conditioned for workloads with
heavy-tailed flow sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import NumericalFailureError
from ..model import DemandMatrix, DirectedLink, FlowPath, HybridNetwork, NodeId, pair_key
from .decompose import decompose_commodity, scale_paths_to, solver_noise
from .linprog import EQ, GE, LE, LinearProgram, LpStatus, SimplexResult, solve_simplex

RESIDUAL_TOL = 1e-7
DEGREE_TOL = 1e-9


@dataclass
class LpProblem:
    """A built LP plus the index maps needed to decode its solution."""

    lp: LinearProgram
    arcs: tuple[DirectedLink, ...]
    commodities: tuple[tuple[NodeId, NodeId], ...]
    z_pairs: tuple[tuple[NodeId, NodeId], ...]
    demands: DemandMatrix
    demand_scale: float
    net: HybridNetwork | None = None

    @property
    def num_flow_vars(self) -> int:
        return len(self.commodities) * len(self.arcs)

    def flow_var(self, commodity_index: int, arc_index: int) -> int:
        return 1 + commodity_index * len(self.arcs) + arc_index

    def z_var(self, pair_index: int) -> int:
        return 1 + self.num_flow_vars + pair_index

    @property
    def trivially_optimal(self) -> bool:
        return not self.commodities


@dataclass
class LpSolution:
    """Fractional optimum: objective, indicators, and per-commodity flows."""

    status: LpStatus
    objective: float
    z: dict[tuple[NodeId, NodeId], float]
    flows: dict[tuple[NodeId, NodeId], dict[DirectedLink, float]]
    problem: LpProblem
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    def paths(
        self, commodity: tuple[NodeId, NodeId], target: float, factor: float = 1.0
    ) -> list[FlowPath]:
        """The commodity's flow times ``factor`` as simple paths carrying
        exactly ``target`` (the LP's demand row is one-sided, so slight
        over-delivery is possible and must not leak into the flow)."""
        links = {arc: value * factor for arc, value in self.flows.get(commodity, {}).items()}
        noise = solver_noise(self.problem.demand_scale)
        paths, _cycles = decompose_commodity(commodity, links, noise=noise)
        return scale_paths_to(paths, target, slack=noise)


def _positive_arcs(arcs: Sequence[DirectedLink]) -> tuple[DirectedLink, ...]:
    return tuple(a for a in arcs if a.capacity > 0)


def build_mcrn_lp(net: HybridNetwork, demands: DemandMatrix) -> LpProblem:
    """LP relaxation of the joint matching/routing problem (segregated).

    Emits, per commodity, interior-node conservation and a source row
    requiring net outflow of at least (1 - z) times the demand; per static
    arc a capacity row normalized by the capacity; per demand direction an
    indicator-capacity row; and per node a degree row capping the incident
    indicators at one.
    """
    z_pairs = []
    for i, j in demands.positive_pairs():
        usable = True
        for (a, b) in ((i, j), (j, i)):
            if demands.get(a, b) > 0 and net.reconf_capacity(a, b) <= 0:
                usable = False  # offloading would route demand onto a dead link
        if usable:
            z_pairs.append((i, j))
    return _build(_positive_arcs(net.static_arcs()), net.n, demands, tuple(z_pairs), net)


def build_mcmf_lp(
    net_or_arcs: HybridNetwork | Sequence[DirectedLink], demands: DemandMatrix
) -> LpProblem:
    """Plain min-congestion multicommodity-flow LP (no matching indicators).

    Accepts either a network (static arcs are used) or an explicit arc set,
    so reconfigured networks can be evaluated by passing their arcs.
    """
    if isinstance(net_or_arcs, HybridNetwork):
        arcs = _positive_arcs(net_or_arcs.static_arcs())
        return _build(arcs, net_or_arcs.n, demands, (), net_or_arcs)
    arcs = _positive_arcs(tuple(net_or_arcs))
    n_nodes = max((max(a.tail, a.head) for a in arcs), default=-1) + 1
    for i, j in demands.commodities():
        n_nodes = max(n_nodes, i + 1, j + 1)
    return _build(arcs, n_nodes, demands, (), None)


def _build(
    arcs: tuple[DirectedLink, ...],
    n_nodes: int,
    demands: DemandMatrix,
    z_pairs: tuple[tuple[NodeId, NodeId], ...],
    net: HybridNetwork | None,
) -> LpProblem:
    """Conservation and capacity rows for every commodity, plus the
    indicator rows (which read ``net``) when ``z_pairs`` is non-empty."""
    commodities = demands.commodities()
    scale = demands.max_demand() or 1.0
    problem = LpProblem(
        lp=LinearProgram(num_vars=1 + len(commodities) * len(arcs) + len(z_pairs)),
        arcs=arcs,
        commodities=commodities,
        z_pairs=z_pairs,
        demands=demands,
        demand_scale=scale,
        net=net,
    )
    if problem.trivially_optimal:
        return problem

    lp = problem.lp
    lp.objective = {0: 1.0}
    z_index = {p: k for k, p in enumerate(z_pairs)}

    out_arcs: dict[NodeId, list[int]] = {}
    in_arcs: dict[NodeId, list[int]] = {}
    for ai, arc in enumerate(arcs):
        out_arcs.setdefault(arc.tail, []).append(ai)
        in_arcs.setdefault(arc.head, []).append(ai)

    for ci, (i, j) in enumerate(commodities):
        d = demands.get(i, j) / scale
        for v in range(n_nodes):
            if v == j:
                continue  # sink row is implied by the others
            coeffs: dict[int, float] = {}
            for ai in out_arcs.get(v, ()):
                coeffs[problem.flow_var(ci, ai)] = 1.0
            for ai in in_arcs.get(v, ()):
                coeffs[problem.flow_var(ci, ai)] = -1.0
            if v == i:
                pair = pair_key(i, j)
                if pair in z_index:
                    coeffs[problem.z_var(z_index[pair])] = d
                lp.add_row(coeffs, GE, d, f"dem:{i}->{j}")
            elif coeffs:
                lp.add_row(coeffs, EQ, 0.0, f"con:{i}->{j}@{v}")

    for ai, arc in enumerate(arcs):
        coeffs = {problem.flow_var(ci, ai): 1.0 / arc.capacity for ci in range(len(commodities))}
        coeffs[0] = -1.0
        lp.add_row(coeffs, LE, 0.0, f"cap:{ai}")

    for (i, j), k in z_index.items():
        for (a, b) in ((i, j), (j, i)):
            d = demands.get(a, b)
            if d <= 0:
                continue
            cap = net.reconf_capacity(a, b)
            lp.add_row(
                {problem.z_var(k): d / scale / cap, 0: -1.0},
                LE,
                0.0,
                f"zcap:{a}->{b}",
            )

    incident: dict[NodeId, list[int]] = {}
    for (i, j), k in z_index.items():
        incident.setdefault(i, []).append(k)
        incident.setdefault(j, []).append(k)
    for node in sorted(incident):
        lp.add_row(
            {problem.z_var(k): 1.0 for k in incident[node]},
            LE,
            1.0,
            f"deg:{node}",
        )

    for pair, k in z_index.items():
        lp.add_row({problem.z_var(k): 1.0}, LE, 1.0, f"zub:{pair}")

    return problem


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a built problem and decode indicators and per-commodity flows.

    The decoded solution is checked for primal feasibility (residuals within
    1e-7 on the normalized problem) and for the per-node indicator degree
    bound; violations raise rather than return silently wrong data.
    """
    if problem.trivially_optimal:
        return LpSolution(LpStatus.OPTIMAL, 0.0, {}, {}, problem)

    result = solve_simplex(problem.lp)
    if result.status is LpStatus.UNBOUNDED:
        raise NumericalFailureError("congestion LP reported unbounded")
    if result.status is LpStatus.INFEASIBLE:
        return LpSolution(LpStatus.INFEASIBLE, math.inf, {}, {}, problem, result.iterations)

    _check_residuals(problem, result)

    scale = problem.demand_scale
    z = {}
    for k, pair in enumerate(problem.z_pairs):
        z[pair] = float(min(max(result.x[problem.z_var(k)], 0.0), 1.0))
    flows: dict[tuple[NodeId, NodeId], dict[DirectedLink, float]] = {}
    for ci, commodity in enumerate(problem.commodities):
        links: dict[DirectedLink, float] = {}
        for ai, arc in enumerate(problem.arcs):
            value = float(result.x[problem.flow_var(ci, ai)]) * scale
            if value > 1e-11 * scale:
                links[arc] = value
        flows[commodity] = links

    degree: dict[NodeId, float] = {}
    for (i, j), value in z.items():
        degree[i] = degree.get(i, 0.0) + value
        degree[j] = degree.get(j, 0.0) + value
    for node, total in degree.items():
        if total > 1.0 + DEGREE_TOL:
            raise NumericalFailureError(f"indicator degree bound violated at node {node}: {total}")

    return LpSolution(
        LpStatus.OPTIMAL, result.objective * scale, z, flows, problem, result.iterations
    )


def _check_residuals(problem: LpProblem, result: SimplexResult) -> None:
    x = result.x
    worst = 0.0
    for row in problem.lp.rows:
        value = math.fsum(coef * x[var] for var, coef in row.coeffs.items())
        if row.sense == LE:
            violation = value - row.rhs
        elif row.sense == GE:
            violation = row.rhs - value
        else:
            violation = abs(value - row.rhs)
        worst = max(worst, violation)
    magnitude = max(1.0, max(abs(r.rhs) for r in problem.lp.rows))
    if worst > RESIDUAL_TOL * magnitude:
        raise NumericalFailureError(f"primal residual {worst:.3e} exceeds tolerance")
