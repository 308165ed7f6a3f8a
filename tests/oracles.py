"""Independent oracles for the test suite.

Deliberately built on different foundations than the package under test:
congestion optima come from a path-enumeration LP solved by scipy's HiGHS
(a different formulation from the package's edge-based LP), unsplittable
optima from trying every path assignment, exact rational LP values from
vertex enumeration over Fractions, matchings from exhaustive enumeration,
and k shortest paths from one best-first search per pair.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from reconfnet.evaluation import EvalSpec, _enumerate_matchings, eval_matching
from reconfnet.model import (
    DemandMatrix,
    DirectedLink,
    HybridNetwork,
    Matching,
    arc_order,
    pair_key,
)
from reconfnet.paths import all_simple_paths


def path_lp_congestion(arcs, demands: DemandMatrix, path_cap: int = 20000) -> float:
    """Exact splittable min-congestion over explicit simple paths (HiGHS).

    Returns math.inf when some commodity has no path.
    """
    arcs = tuple(a for a in arcs if a.capacity > 0)
    menus = []
    for (i, j) in demands.commodities():
        options = all_simple_paths(arcs, i, j, path_cap)
        if not options:
            return math.inf
        menus.append(((i, j), options))
    if not menus:
        return 0.0
    num_vars = 1 + sum(len(options) for _, options in menus)
    c = np.zeros(num_vars)
    c[0] = 1.0
    eq_rows, eq_cols, rhs_eq = [], [], []
    arc_to_vars: dict[DirectedLink, list[int]] = {}
    base = 1
    for (i, j), options in menus:
        for idx, path in enumerate(options):
            eq_rows.append(len(rhs_eq))
            eq_cols.append(base + idx)
            for arc in path:
                arc_to_vars.setdefault(arc, []).append(base + idx)
        rhs_eq.append(demands.get(i, j))
        base += len(options)
    ub_rows, ub_cols, ub_data = [], [], []
    ordered = sorted(arc_to_vars, key=lambda a: (a.tail, a.head, a.kind.value, a.copy))
    for r, arc in enumerate(ordered):
        for var in arc_to_vars[arc] + [0]:
            ub_rows.append(r)
            ub_cols.append(var)
            ub_data.append(-1.0 if var == 0 else 1.0 / arc.capacity)
    A_eq = sp.csr_array((np.ones(len(eq_rows)), (eq_rows, eq_cols)), shape=(len(rhs_eq), num_vars))
    A_ub = sp.csr_array((ub_data, (ub_rows, ub_cols)), shape=(len(ordered), num_vars))
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=np.zeros(len(ordered)),
        A_eq=A_eq,
        b_eq=rhs_eq,
        bounds=[(0, None)] * num_vars,
        method="highs",
    )
    if res.status == 2:
        return math.inf
    assert res.status == 0, f"oracle LP failed with status {res.status}"
    return float(res.fun)


def exhaustive_unsplittable_congestion(arcs, demands: DemandMatrix, path_cap: int = 20000) -> float:
    """Exact unsplittable min-congestion: every combination of one simple
    path per commodity is tried.  Returns math.inf when some commodity has
    no path."""
    arcs = tuple(a for a in arcs if a.capacity > 0)
    index = {arc: k for k, arc in enumerate(arcs)}
    capacities = [arc.capacity for arc in arcs]
    menus, amounts = [], []
    for (i, j) in demands.commodities():
        options = all_simple_paths(arcs, i, j, path_cap)
        if not options:
            return math.inf
        menus.append([tuple(index[arc] for arc in path) for path in options])
        amounts.append(demands.get(i, j))
    best = math.inf
    for assignment in itertools.product(*menus):
        loads: dict[int, float] = {}
        for amount, path in zip(amounts, assignment):
            for k in path:
                loads[k] = loads.get(k, 0.0) + amount
        best = min(best, max((load / capacities[k] for k, load in loads.items()), default=0.0))
    return best


def best_first_k_shortest_paths(arcs, src, dst, k: int) -> list[tuple[DirectedLink, ...]]:
    """Up to ``k`` loopless paths from src to dst, shortest (by hops) first.

    One exhaustive best-first search for the one pair, over its own sorted
    adjacency: candidate paths are popped in (hops, node sequence, copy
    sequence) order, so the first k arrivals at ``dst`` are the k shortest.
    """
    if k < 1 or src == dst:
        return []
    adj: dict[int, list[DirectedLink]] = {}
    for arc in arcs:
        adj.setdefault(arc.tail, []).append(arc)
    for out in adj.values():
        out.sort(key=arc_order)
    found = []
    heap = [(0, (src,), (), src, ())]
    while heap and len(found) < k:
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


def segregated_matching_cost(net: HybridNetwork, demands: DemandMatrix, matching: Matching) -> float:
    """Exact splittable-segregated cost of one matching, via the path oracle."""
    worst = 0.0
    for i, j in demands.commodities():
        if pair_key(i, j) in matching:
            cap = net.reconf_capacity(i, j)
            d = demands.get(i, j)
            worst = max(worst, d / cap if cap > 0 else math.inf)
    residual = demands.without_pairs(matching.pairs)
    static = path_lp_congestion(net.static_arcs(), residual)
    return max(worst, static)


def enumerate_matchings(pairs):
    pairs = sorted(pairs)

    def extend(index, chosen, used):
        if index == len(pairs):
            yield Matching(chosen)
            return
        yield from extend(index + 1, chosen, used)
        i, j = pairs[index]
        if i not in used and j not in used:
            chosen.append((i, j))
            used.update((i, j))
            yield from extend(index + 1, chosen, used)
            chosen.pop()
            used.difference_update((i, j))

    yield from extend(0, [], set())


def exhaustive_ss_opt(net: HybridNetwork, demands: DemandMatrix) -> tuple[Matching, float]:
    """Ground-truth splittable-segregated optimum, fully independent of the
    package's LP engine."""
    best_matching, best = Matching(), math.inf
    for matching in enumerate_matchings(demands.positive_pairs()):
        cost = segregated_matching_cost(net, demands, matching)
        if cost < best - 1e-12:
            best_matching, best = matching, cost
    return best_matching, best


def cold_matching_minimum(net: HybridNetwork, demands: DemandMatrix, spec: EvalSpec) -> float:
    """Least ``eval_matching`` load over the matchings ``brute_force_opt``
    enumerates, each priced on its own freshly built LP (the reference for
    any optimizer that re-solves one model across matchings)."""
    if spec.routing.segregated:
        pairs, maximal_only = list(demands.positive_pairs()), False
    else:
        pairs, maximal_only = list(itertools.combinations(range(net.n), 2)), True
    return min(
        eval_matching(net, demands, matching, EvalSpec(spec.routing)).max_load
        for matching in _enumerate_matchings(pairs, maximal_only=maximal_only)
    )


def exhaustive_max_weight(pairs_with_weights) -> float:
    """Best total matching weight by enumeration (math.fsum for stability)."""
    pairs = [p for p, _ in pairs_with_weights]
    weight = dict(pairs_with_weights)
    best = 0.0
    for matching in enumerate_matchings(pairs):
        total = math.fsum(weight[p] for p in matching.pairs)
        if total > best:
            best = total
    return best


def rational_vertex_lp(num_vars, rows, objective_var=0):
    """Exact LP minimum by basic-solution enumeration over Fractions.

    ``rows`` are (coeffs dict, sense, rhs) with all variables >= 0; intended
    for tiny instances only (the basis count is combinatorial).
    """
    senses = [sense for _, sense, _ in rows]
    A = [dict(coeffs) for coeffs, _, _ in rows]
    b = [Fraction(rhs).limit_denominator(10**9) for _, _, rhs in rows]
    col = num_vars
    for r, sense in enumerate(senses):
        if sense == "<=":
            A[r][col] = Fraction(1)
            col += 1
        elif sense == ">=":
            A[r][col] = Fraction(-1)
            col += 1
    ncols = col
    m = len(A)
    best = None
    for basis in itertools.combinations(range(ncols), m):
        mat = [[Fraction(A[r].get(c, 0)) for c in basis] + [b[r]] for r in range(m)]
        x_basis = _gauss_solve(mat)
        if x_basis is None or any(v < 0 for v in x_basis):
            continue
        assignment = {c: x_basis[i] for i, c in enumerate(basis)}
        value = assignment.get(objective_var, Fraction(0))
        if best is None or value < best:
            best = value
    return best


def _gauss_solve(mat):
    m = len(mat)
    for i in range(m):
        pivot = next((r for r in range(i, m) if mat[r][i] != 0), None)
        if pivot is None:
            return None
        mat[i], mat[pivot] = mat[pivot], mat[i]
        inv = Fraction(1) / mat[i][i]
        mat[i] = [v * inv for v in mat[i]]
        for r in range(m):
            if r != i and mat[r][i] != 0:
                factor = mat[r][i]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[i])]
    return [mat[i][m] for i in range(m)]
