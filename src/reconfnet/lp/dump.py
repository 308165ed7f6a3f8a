"""Text dump of a built LP in CPLEX-LP style, for external cross-checks."""

from __future__ import annotations

import math

from .builder import LpProblem


def _var_name(problem: LpProblem, index: int) -> str:
    if index == 0:
        return "lam"
    index -= 1
    n_arcs = len(problem.arcs)
    if index < len(problem.sources) * n_arcs:
        k, ai = divmod(index, n_arcs)
        arc = problem.arcs[ai]
        return f"f_{problem.sources[k]}__{arc.kind.value}{arc.copy}_{arc.tail}_{arc.head}"
    i, j = problem.z_pairs[index - len(problem.sources) * n_arcs]
    return f"z_{i}_{j}"


def write_lp(problem: LpProblem, path) -> None:
    """Rows are named after their block (``flow_0``, ``cap_3``, ...); every
    column is nonnegative, and a finite upper bound is listed under Bounds."""
    lp = problem.lp
    names = [_var_name(problem, v) for v in range(lp.num_vars)]
    lines = ["Minimize", " obj: lam", "Subject To"]
    rows = [f"{block}_{i}" for block, span in problem.row_blocks.items() for i in range(len(span))]
    csr = lp.matrix.tocsr()
    for r, (lower, upper) in enumerate(zip(lp.row_lower, lp.row_upper)):
        span = slice(csr.indptr[r], csr.indptr[r + 1])
        terms = " ".join(f"{c:+.12g} {names[v]}" for v, c in zip(csr.indices[span], csr.data[span]))
        if lower == upper:
            sense, rhs = "=", lower
        elif upper < math.inf:
            sense, rhs = "<=", upper
        else:
            sense, rhs = ">=", lower
        lines.append(f" {rows[r]}: {terms} {sense} {rhs:.12g}")
    lines.append("Bounds")
    for name, upper in zip(names, lp.col_upper):
        lines.append(f" 0 <= {name}" + (f" <= {upper:.12g}" if upper < math.inf else ""))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
