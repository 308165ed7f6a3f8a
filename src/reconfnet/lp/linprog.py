"""The toolkit's linear programs and their solver, HiGHS's dual simplex.

A ``LinearProgram`` is matrix-first: a sparse constraint matrix with row
lower and upper bounds, column upper bounds (every column is nonnegative)
and a cost vector.  ``solve_simplex`` hands it to ``scipy.optimize.linprog``
and reports the status, objective and primal vector; callers check the
result (residuals, degree bound) themselves rather than trusting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from ..errors import NumericalFailureError


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min cost.x  s.t.  row_lower <= matrix @ x <= row_upper,
    0 <= x <= col_upper.  Infinite bounds are absent bounds."""

    matrix: object  # a scipy.sparse COO array, rows by columns
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_upper: np.ndarray
    cost: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.matrix.shape[1]

    @property
    def rows(self) -> tuple[SimpleNamespace, ...]:
        """Each row's non-zeros as ``coeffs`` {column: value}.  A read-only
        view for tools outside the package, which itself reads ``matrix``."""
        m = self.matrix.tocsr()
        return tuple(
            SimpleNamespace(coeffs=dict(zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())))
            for lo, hi in zip(m.indptr[:-1].tolist(), m.indptr[1:].tolist())
        )


@dataclass
class SimplexResult:
    status: LpStatus
    objective: float
    x: np.ndarray
    iterations: int


_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def solve_simplex(lp: LinearProgram) -> SimplexResult:
    """Solve ``lp`` with HiGHS's dual simplex.

    Rows with equal bounds form the equality block; the finite upper bounds,
    then the negated finite lower bounds, form the inequality block.  Any
    HiGHS outcome other than optimal, infeasible or unbounded (iteration
    limit, numerical trouble) raises.
    """
    # Deferred: scipy.optimize and scipy.sparse add about 40 MiB to a
    # process, and LP-free callers of the package never need them.
    from scipy.optimize import linprog

    eq = lp.row_lower == lp.row_upper
    upper = ~eq & np.isfinite(lp.row_upper)
    lower = ~eq & np.isfinite(lp.row_lower)
    res = linprog(
        lp.cost,
        A_ub=_stack_rows(lp.matrix, [(upper, 1.0), (lower, -1.0)]),
        b_ub=np.concatenate([lp.row_upper[upper], -lp.row_lower[lower]]),
        A_eq=_stack_rows(lp.matrix, [(eq, 1.0)]),
        b_eq=lp.row_lower[eq],
        bounds=np.column_stack([np.zeros(lp.num_vars), lp.col_upper]),
        method="highs-ds",
    )
    status = _STATUS.get(res.status)
    if status is None:
        raise NumericalFailureError(f"HiGHS stopped with status {res.status}: {res.message}")
    if status is LpStatus.OPTIMAL:
        return SimplexResult(status, float(res.fun), res.x, res.nit)
    objective = float("nan") if status is LpStatus.INFEASIBLE else float("-inf")
    return SimplexResult(status, objective, np.zeros(lp.num_vars), res.nit)


def _stack_rows(matrix, parts):
    """The rows of the COO ``matrix`` picked by each (mask, sign) of
    ``parts``, times that sign and stacked in order.  Sparse row indexing
    costs more than the solve on the toolkit's smallest LPs."""
    import scipy.sparse as sp

    data, rows, cols, top = [], [], [], 0
    for mask, sign in parts:
        take = mask[matrix.row]
        data.append(sign * matrix.data[take])
        rows.append(top + np.cumsum(mask)[matrix.row[take]] - 1)
        cols.append(matrix.col[take])
        top += int(mask.sum())
    coo = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    return sp.coo_array(coo, shape=(top, matrix.shape[1]))
