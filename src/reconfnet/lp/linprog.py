"""The toolkit's linear programs and their solver, HiGHS's dual simplex.

A ``LinearProgram`` is a list of labelled sparse rows over nonnegative
variables.  ``solve_simplex`` hands it to ``scipy.optimize.linprog`` and
reports the status, objective and primal vector; callers check the result
(residuals, degree bound) themselves rather than trusting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import NumericalFailureError

LE = "<="
GE = ">="
EQ = "=="


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearRow:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    label: str = ""


@dataclass
class LinearProgram:
    """min c.x  s.t. rows, x >= 0.  Variables are indexed densely from 0."""

    num_vars: int
    objective: dict[int, float] = field(default_factory=dict)
    rows: list[LinearRow] = field(default_factory=list)

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float, label: str = "") -> None:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        for var in coeffs:
            if not (0 <= var < self.num_vars):
                raise ValueError(f"row {label!r} references undeclared variable {var}")
        self.rows.append(LinearRow(dict(coeffs), sense, float(rhs), label))

    def row_count(self, prefix: str) -> int:
        return sum(1 for r in self.rows if r.label.startswith(prefix))


@dataclass
class SimplexResult:
    status: LpStatus
    objective: float
    x: np.ndarray
    iterations: int


_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def solve_simplex(lp: LinearProgram) -> SimplexResult:
    """Solve ``lp`` with HiGHS's dual simplex.

    LE rows and negated GE rows form the inequality block, EQ rows the
    equality block.  Any HiGHS outcome other than optimal, infeasible or
    unbounded (iteration limit, numerical trouble) raises.
    """
    # Deferred: these two add about 40 MiB to a process, and LP-free callers
    # of the package never need them.
    import scipy.sparse as sp
    from scipy.optimize import linprog

    blocks = {LE: ([], [], [], []), EQ: ([], [], [], [])}
    for row in lp.rows:
        sign = -1.0 if row.sense == GE else 1.0
        data, rows, cols, rhs = blocks[EQ if row.sense == EQ else LE]
        r = len(rhs)
        for var, coef in row.coeffs.items():
            data.append(sign * coef)
            rows.append(r)
            cols.append(var)
        rhs.append(sign * row.rhs)

    def matrix(sense):
        data, rows, cols, rhs = blocks[sense]
        if not rhs:
            return None, None
        return sp.csr_array((data, (rows, cols)), shape=(len(rhs), lp.num_vars)), rhs

    A_ub, b_ub = matrix(LE)
    A_eq, b_eq = matrix(EQ)
    c = np.zeros(lp.num_vars)
    for var, coef in lp.objective.items():
        c[var] = coef
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds"
    )
    status = _STATUS.get(res.status)
    if status is None:
        raise NumericalFailureError(f"HiGHS stopped with status {res.status}: {res.message}")
    if status is LpStatus.OPTIMAL:
        return SimplexResult(status, float(res.fun), res.x, res.nit)
    objective = float("nan") if status is LpStatus.INFEASIBLE else float("-inf")
    return SimplexResult(status, objective, np.zeros(lp.num_vars), res.nit)
