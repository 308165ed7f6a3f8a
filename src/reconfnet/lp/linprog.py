"""The toolkit's linear programs and their solver, HiGHS's dual simplex.

A ``LinearProgram`` is matrix-first: a sparse constraint matrix with row
lower and upper bounds, column upper bounds (every column is nonnegative)
and a cost vector.  ``solve_simplex`` hands it to HiGHS as it is (HiGHS takes
ranged rows) and reports the status, objective and primal vector.  It checks
every optimal vector against the program's own bounds rather than trusting
the solver; constraints beyond those (the degree bound) are the caller's.

This module is the one place that imports scipy's private HiGHS binding,
``scipy.optimize._highspy._core``; scipy's own ``linprog`` costs more per
call than the dual simplex does on the toolkit's smallest LPs.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace

import numpy as np

from ..errors import NumericalFailureError, SolverUnavailableError

RESIDUAL_TOL = 1e-7


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass
class _Held:
    """A HiGHS model kept between solves, with the bounds it was last given."""

    highs: object
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_upper: np.ndarray


@dataclass
class LinearProgram:
    """min cost.x  s.t.  row_lower <= matrix @ x <= row_upper,
    0 <= x <= col_upper.  Infinite bounds are absent bounds."""

    matrix: object  # a scipy.sparse COO array, rows by columns
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_upper: np.ndarray
    cost: np.ndarray
    _held: _Held | None = field(default=None, init=False, repr=False, compare=False)

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


def _binding():
    """scipy's HiGHS binding, imported on first use: scipy.optimize adds
    about 40 MiB to a process, and LP-free callers never need it."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        import scipy

        raise SolverUnavailableError(
            f"scipy {scipy.__version__} lacks the HiGHS binding "
            f"scipy.optimize._highspy._core that the LP solver calls: {exc}"
        ) from exc
    return _core


def solve_simplex(lp: LinearProgram) -> SimplexResult:
    """Solve ``lp`` with HiGHS's dual simplex.

    The HiGHS model stays with ``lp`` after its first solve.  A later solve of
    the same ``lp`` re-solves that model from its last basis, after pushing
    only the row and column bounds that changed since; the matrix and cost
    must not change in between.  An optimal vector with a primal residual
    above ``RESIDUAL_TOL`` raises, and so does any HiGHS outcome other than
    optimal or infeasible.  Every program the toolkit builds minimises a
    nonnegative congestion over nonnegative columns, so an unbounded one is
    a numerical failure like an iteration limit.
    """
    core = _binding()
    held = lp._held
    if held is None:
        held = lp._held = _load(core, lp)
    else:
        _push_bounds(held, lp)
    highs = held.highs
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    iterations = info.simplex_iteration_count
    if model_status == core.HighsModelStatus.kOptimal:
        x = np.array(highs.getSolution().col_value)
        _check_residual(lp, x)
        return SimplexResult(LpStatus.OPTIMAL, info.objective_function_value, x, iterations)
    if model_status == core.HighsModelStatus.kInfeasible:
        return SimplexResult(LpStatus.INFEASIBLE, float("nan"), np.zeros(lp.num_vars), iterations)
    status = highs.modelStatusToString(model_status)
    raise NumericalFailureError(f"HiGHS stopped with status {status}")


def write_model(lp: LinearProgram, path, row_names: list[str], col_names: list[str]) -> None:
    """Write ``lp`` to ``path`` as a HiGHS LP file, rows and columns named as given."""
    core = _binding()
    highs = _load(core, lp).highs
    for r, name in enumerate(row_names):
        highs.passRowName(r, name)
    for c, name in enumerate(col_names):
        highs.passColName(c, name)
    # HiGHS picks the format by extension and crashes on a file it cannot open
    with tempfile.TemporaryDirectory() as scratch:
        if highs.writeModel(f"{scratch}/model.lp") == core.HighsStatus.kError:
            raise OSError(f"HiGHS could not write the LP file {path}")
        shutil.copyfile(f"{scratch}/model.lp", path)


def _check_residual(lp: LinearProgram, x: np.ndarray) -> None:
    """One mat-vec: every row activity and every column within its bounds.

    Every program the toolkit builds divides its demands by the largest, so
    every finite row bound lies in [0, 1] and the tolerance needs no scale.
    """
    activity = lp.matrix @ x
    worst = max(
        np.max(lp.row_lower - activity, initial=0.0),
        np.max(activity - lp.row_upper, initial=0.0),
        np.max(-x, initial=0.0),
        np.max(x - lp.col_upper, initial=0.0),
    )
    if worst > RESIDUAL_TOL:
        raise NumericalFailureError(f"primal residual {worst:.3e} exceeds tolerance")


def _load(core, lp: LinearProgram) -> _Held:
    """A fresh HiGHS instance holding ``lp``, with the options scipy's
    ``linprog(method="highs-ds")`` sets."""
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("solver", "simplex")
    highs.setOptionValue("simplex_strategy", 1)  # dual
    csc = lp.matrix.tocsc()
    model = core.HighsLp()
    model.num_row_, model.num_col_ = csc.shape
    model.col_cost_ = lp.cost
    model.col_lower_ = np.zeros(lp.num_vars)
    model.col_upper_ = lp.col_upper
    model.row_lower_ = lp.row_lower
    model.row_upper_ = lp.row_upper
    matrix = model.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_row_, matrix.num_col_ = csc.shape
    matrix.start_ = csc.indptr
    matrix.index_ = csc.indices
    matrix.value_ = csc.data
    if highs.passModel(model) == core.HighsStatus.kError:
        raise NumericalFailureError("HiGHS rejected the model")
    return _Held(highs, lp.row_lower.copy(), lp.row_upper.copy(), lp.col_upper.copy())


def _push_bounds(held: _Held, lp: LinearProgram) -> None:
    """Send HiGHS the row and column bounds of ``lp`` that differ from the
    ones it holds."""
    rows = np.flatnonzero((lp.row_lower != held.row_lower) | (lp.row_upper != held.row_upper))
    for r in rows.tolist():
        held.highs.changeRowBounds(r, lp.row_lower[r], lp.row_upper[r])
    cols = np.flatnonzero(lp.col_upper != held.col_upper)
    zeros = np.zeros(len(cols))
    held.highs.changeColsBounds(len(cols), cols.astype(np.int32), zeros, lp.col_upper[cols])
    held.row_lower[rows] = lp.row_lower[rows]
    held.row_upper[rows] = lp.row_upper[rows]
    held.col_upper[:] = lp.col_upper
