"""Compact edge-based LP construction for matching/routing co-optimization.

Columns: 0 is lambda, the congestion objective; then one flow block per
source (the arc flows of all its commodities together); then one matching
indicator per unordered pair, 0 <= z <= 1.  Row blocks, in order
(``LpProblem.row_blocks``):
  flow  per source s and node v != s: net inflow at v plus d_sv z_sv is at
        least d_sv at a sink v of s, and net inflow is at least 0 elsewhere
  cap   per static arc: flow over capacity is at most lambda
  zcap  per commodity with an indicator: d z over the reconfigurable
        capacity of its direction is at most lambda
  deg   per node with an indicator: the incident indicators sum to at most 1
One block per source gives the same optimum as one per commodity (source
aggregation): each source's flow splits into paths to its sinks.

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
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import NumericalFailureError
from ..model import ArcIds, DemandMatrix, DirectedLink, FlowPath, HybridNetwork, NodeId
from ..model import check_endpoints
from ..paths import k_shortest_paths
from .decompose import decompose_commodity, scale_paths_to, solver_noise
from .linprog import LinearProgram, LpStatus, solve_simplex, write_model

DEGREE_TOL = 1e-9

Commodity = tuple[NodeId, NodeId]


@dataclass
class LpProblem:
    """A built LP plus the index maps needed to decode its solution."""

    lp: LinearProgram
    arcs: tuple[DirectedLink, ...]
    sources: tuple[NodeId, ...]
    z_pairs: tuple[tuple[NodeId, NodeId], ...]
    row_blocks: dict[str, range]
    demands: DemandMatrix
    demand_scale: float
    net: HybridNetwork | None = None

    @property
    def trivially_optimal(self) -> bool:
        return not self.sources

    @cached_property
    def numbered(self) -> ArcIds:
        """``arcs`` numbered by position, the ids that key each source's flow."""
        return ArcIds(self.arcs)

    def sink_rows(self, commodities: Sequence[tuple[NodeId, NodeId]]) -> np.ndarray:
        """The flow row of each commodity's sink: the one row whose lower
        bound is that commodity's demand."""
        s, t = np.array(commodities, dtype=np.int64).reshape(-1, 2).T
        per_source = len(self.row_blocks["flow"]) // len(self.sources)  # n - 1 each
        return np.searchsorted(self.sources, s) * per_source + t - (t > s)


@dataclass
class LpSolution:
    """Fractional optimum: objective, indicators, and per-source flows, each
    keyed by arc id (the index into ``problem.arcs``)."""

    status: LpStatus
    objective: float
    z: dict[tuple[NodeId, NodeId], float]
    flows: dict[NodeId, dict[int, float]]
    problem: LpProblem
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    @cached_property
    def _decomposed(
        self,
    ) -> tuple[dict[Commodity, list[FlowPath]], dict[Commodity, list[FlowPath]]]:
        """Each commodity's paths and crumbs; each source is decomposed once."""
        noise = solver_noise(self.problem.demand_scale)
        grouped: dict[Commodity, list[FlowPath]] = {}
        crumbs: dict[Commodity, list[FlowPath]] = {}
        for source, links in self.flows.items():
            paths, _cycles, dropped = decompose_commodity(
                source, links, self.problem.numbered, noise=noise
            )
            for path in paths:
                grouped.setdefault(path[0], []).append(path)
            for path in dropped:
                crumbs.setdefault(path[0], []).append(path)
        return grouped, crumbs

    def paths(self, commodity: Commodity, target: float, factor: float = 1.0) -> list[FlowPath]:
        """The commodity's paths in its source's flow, times ``factor`` and
        trimmed to carry exactly ``target`` (the LP's demand row is
        one-sided, so slight over-delivery is possible and must not leak into
        the flow).

        One rule covers the solver's slack: the paths may fall short of
        ``target`` by the solver noise, and the shortfall is repaid on the
        first path.  A commodity whose flow came apart in crumbs below the
        noise takes its crumbs back, since they are its flow too.  HiGHS may
        meet a sink row within its tolerance with no flow at all; such a
        commodity repays its whole demand on its shortest path.
        """
        grouped, crumbs = self._decomposed
        noise = solver_noise(self.problem.demand_scale)
        paths = [(c, arcs, amount * factor) for c, arcs, amount in grouped.get(commodity, ())]
        if math.fsum(amount for _, _, amount in paths) < target - noise:
            paths += [(c, arcs, amount * factor) for c, arcs, amount in crumbs.get(commodity, ())]
        if not paths:
            shortest = k_shortest_paths(self.problem.arcs, [commodity], 1)[commodity]
            paths = [(commodity, arcs, 0.0) for arcs in shortest]
        return scale_paths_to(paths, target, slack=noise)


def _positive_arcs(arcs: Sequence[DirectedLink]) -> tuple[DirectedLink, ...]:
    return tuple(a for a in arcs if a.capacity > 0)


def build_mcrn_lp(net: HybridNetwork, demands: DemandMatrix) -> LpProblem:
    """LP relaxation of the joint matching/routing problem (segregated):
    the four row blocks of the module docstring."""
    check_endpoints(net, demands)
    z_caps = {}
    for i, j in demands.positive_pairs():
        caps = (net.reconf_capacity(i, j), net.reconf_capacity(j, i))
        # offloading would route demand onto a dead link
        if all(cap > 0 or demands.get(*d) <= 0 for cap, d in zip(caps, ((i, j), (j, i)))):
            z_caps[(i, j)] = caps
    return _build(_positive_arcs(net.static_arcs()), net.n, demands, z_caps, net)


def build_mcmf_lp(arcs: Sequence[DirectedLink], demands: DemandMatrix) -> LpProblem:
    """Plain min-congestion multicommodity-flow LP (no matching indicators)
    over an explicit arc set, such as the arcs of a reconfigured network."""
    arcs = _positive_arcs(arcs)
    n_nodes = max((max(a.tail, a.head) for a in arcs), default=-1) + 1
    for i, j in demands.commodities():
        n_nodes = max(n_nodes, i + 1, j + 1)
    return _build(arcs, n_nodes, demands, {}, None)


def _build(
    arcs: tuple[DirectedLink, ...],
    n: int,
    demands: DemandMatrix,
    z_caps: dict[tuple[NodeId, NodeId], tuple[float, float]],
    net: HybridNetwork | None,
) -> LpProblem:
    """The four row blocks over nodes 0..n-1 as one sparse matrix.  ``z_caps``
    maps each indicator pair (i, j), i < j, to its reconfigurable capacities
    (i -> j, j -> i); it is empty for the plain multicommodity-flow LP."""
    import scipy.sparse as sp

    entries = demands.entries
    scale = demands.max_demand() or 1.0
    s, t = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T
    d = np.fromiter(entries.values(), float, len(entries)) / scale
    sources = np.unique(s)
    src_of = np.searchsorted(sources, s)
    tails, heads = np.array([(a.tail, a.head) for a in arcs], dtype=np.int64).reshape(-1, 2).T
    inv_cap = np.array([1.0 / a.capacity for a in arcs])
    z_pairs = tuple(z_caps)
    n_arcs, n_z = len(arcs), len(z_pairs)
    z_col = 1 + len(sources) * n_arcs

    # Row k*n + v is node v of source k; each source's own row is dropped and
    # ``kept`` maps a full row index to its position.
    keep = np.arange(len(sources) * n) % n != np.repeat(sources, n)
    kept = np.cumsum(keep) - 1
    n_flow = int(keep.sum())
    sink = src_of * n + t
    lower = np.zeros(len(keep))
    lower[sink] = d

    # A commodity with an indicator adds d z to its sink row and has a zcap row.
    z_ends = np.array(z_pairs, dtype=np.int64).reshape(-1, 2)
    pair = np.minimum(s, t) * n + np.maximum(s, t)
    z_keys = np.append(z_ends @ [n, 1], n * n)  # sorted, with a sentinel past every pair
    z_of = np.searchsorted(z_keys, pair)
    has_z = z_keys[z_of] == pair
    z_of = z_of[has_z]
    reconf_cap = np.array(list(z_caps.values())).reshape(-1, 2)[z_of, (s > t)[has_z].astype(int)]
    z_nodes = np.unique(z_ends)
    cap0, zcap0 = n_flow, n_flow + n_arcs
    deg0 = zcap0 + len(z_of)

    rows, cols, vals = [], [], []

    def put(r, c, v) -> None:
        rows.append(r)
        cols.append(np.zeros(len(r), dtype=np.int64) + c)
        vals.append(np.zeros(len(r)) + v)

    block, arc = np.divmod(np.arange(len(sources) * n_arcs), n_arcs)
    flow_col = 1 + block * n_arcs + arc
    for node, sign in ((heads, 1.0), (tails, -1.0)):  # net inflow
        full = block * n + node[arc]
        put(kept[full[keep[full]]], flow_col[keep[full]], sign)
    put(kept[sink[has_z]], z_col + z_of, d[has_z])
    put(cap0 + arc, flow_col, inv_cap[arc])
    put(cap0 + np.arange(n_arcs), 0, -1.0)
    put(zcap0 + np.arange(len(z_of)), z_col + z_of, d[has_z] / reconf_cap)
    put(zcap0 + np.arange(len(z_of)), 0, -1.0)
    z_node_row = np.searchsorted(z_nodes, z_ends.reshape(-1))
    put(deg0 + z_node_row, z_col + np.repeat(np.arange(n_z), 2), 1.0)
    n_rows, n_cols = deg0 + len(z_nodes), z_col + n_z
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    upper = [np.full(n_flow, np.inf), np.zeros(deg0 - cap0), np.ones(len(z_nodes))]
    lp = LinearProgram(
        matrix=sp.coo_array(coo, shape=(n_rows, n_cols)),
        row_lower=np.concatenate([lower[keep], np.full(n_rows - n_flow, -np.inf)]),
        row_upper=np.concatenate(upper),
        col_upper=np.concatenate([np.full(z_col, np.inf), np.ones(n_z)]),
        cost=np.r_[1.0, np.zeros(n_cols - 1)],
    )
    return LpProblem(
        lp=lp,
        arcs=arcs,
        sources=tuple(sources.tolist()),
        z_pairs=z_pairs,
        row_blocks={
            "flow": range(0, cap0),
            "cap": range(cap0, zcap0),
            "zcap": range(zcap0, deg0),
            "deg": range(deg0, n_rows),
        },
        demands=demands,
        demand_scale=scale,
        net=net,
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a built problem and decode indicators and per-source flows.

    ``solve_simplex`` checks the primal residuals; the decoded solution is
    also checked for the per-node indicator degree bound, and a violation
    raises rather than returns silently wrong data.
    """
    if problem.trivially_optimal:
        return LpSolution(LpStatus.OPTIMAL, 0.0, {}, {}, problem)

    result = solve_simplex(problem.lp)
    if result.status is LpStatus.INFEASIBLE:
        return LpSolution(LpStatus.INFEASIBLE, math.inf, {}, {}, problem, result.iterations)

    _check_degree(problem, result.x)

    scale = problem.demand_scale
    z_col = 1 + len(problem.sources) * len(problem.arcs)
    z = dict(zip(problem.z_pairs, np.clip(result.x[z_col:], 0.0, 1.0).tolist()))
    flows: dict[NodeId, dict[int, float]] = {}
    per_source = result.x[1:z_col].reshape(len(problem.sources), -1) * scale
    for source, values in zip(problem.sources, per_source):
        used = np.flatnonzero(values > 1e-11 * scale)
        flows[source] = dict(zip(used.tolist(), values[used].tolist()))
    return LpSolution(
        LpStatus.OPTIMAL, result.objective * scale, z, flows, problem, result.iterations
    )


def write_lp(problem: LpProblem, path) -> None:
    """Write the LP as a HiGHS LP file: rows ``flow_0``, ``cap_3``, ...; columns
    ``lam``, ``f_<source>__<kind><copy>_<tail>_<head>`` and ``z_<i>_<j>``."""
    rows = [f"{block}_{i}" for block, span in problem.row_blocks.items() for i in range(len(span))]
    arcs = [f"{a.kind.value}{a.copy}_{a.tail}_{a.head}" for a in problem.arcs]
    flows = [f"f_{source}__{arc}" for source in problem.sources for arc in arcs]
    z = [f"z_{i}_{j}" for i, j in problem.z_pairs]
    write_model(problem.lp, path, rows, ["lam", *flows, *z])


def _check_degree(problem: LpProblem, x: np.ndarray) -> None:
    """The degree rows within a tighter tolerance than the residuals."""
    degree = np.max((problem.lp.matrix @ x)[problem.row_blocks["deg"]], initial=0.0)
    if degree > 1.0 + DEGREE_TOL:
        raise NumericalFailureError(f"indicator degree bound violated: {degree}")
