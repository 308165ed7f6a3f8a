"""The LP adapter's contract with scipy's private HiGHS binding.

``reconfnet.lp.linprog`` calls ``scipy.optimize._highspy._core`` directly.
The binding is not public API, so the names the adapter uses are pinned
here, a missing binding must surface as a ``ReconfNetError`` naming the
installed scipy, and a re-solve of a held model must agree with a solve of
a freshly built program.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from reconfnet.errors import NumericalFailureError
from reconfnet.lp import LinearProgram, LpStatus, build_mcrn_lp, solve_simplex

from .conftest import random_instance

SRC = Path(__file__).resolve().parents[1] / "src"

HIGHS_METHODS = (
    "setOptionValue",
    "passModel",
    "run",
    "getModelStatus",
    "modelStatusToString",
    "getInfo",
    "getSolution",
    "changeRowBounds",
    "changeColsBounds",
    "passRowName",
    "passColName",
    "writeModel",
)


def test_binding_has_every_name_the_adapter_uses() -> None:
    from scipy.optimize._highspy import _core

    missing = [name for name in HIGHS_METHODS if not callable(getattr(_core._Highs, name, None))]
    assert missing == []
    assert hasattr(_core.MatrixFormat, "kColwise")
    assert hasattr(_core.HighsStatus, "kError")
    for status in ("kOptimal", "kInfeasible", "kUnbounded"):
        assert hasattr(_core.HighsModelStatus, status)
    model = _core.HighsLp()
    for attr in ("num_row_", "num_col_", "col_cost_", "col_lower_", "col_upper_"):
        assert hasattr(model, attr)
    for attr in ("row_lower_", "row_upper_", "a_matrix_"):
        assert hasattr(model, attr)
    for attr in ("format_", "num_row_", "num_col_", "start_", "index_", "value_"):
        assert hasattr(model.a_matrix_, attr)
    info = _core._Highs().getInfo()
    assert hasattr(info, "simplex_iteration_count") and hasattr(info, "objective_function_value")

BLOCKED = """
import sys
sys.modules["scipy.optimize._highspy._core"] = None
from reconfnet import DemandMatrix, gen_k_regular, solve_ss
from reconfnet.errors import ReconfNetError
try:
    solve_ss(gen_k_regular(6, 3, seed=1), DemandMatrix({(0, 3): 1.0}))
except ReconfNetError as exc:
    print("refused:", exc)
"""


def test_missing_binding_is_a_toolkit_error_naming_scipy() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED], env=env, capture_output=True, text=True, check=True
    )
    last = done.stdout.strip().splitlines()[-1]
    assert last.startswith("refused:")
    assert f"scipy {scipy.__version__}" in last


def _fresh(lp: LinearProgram) -> LinearProgram:
    """The same program with no HiGHS model held yet."""
    return LinearProgram(
        matrix=lp.matrix,
        row_lower=lp.row_lower.copy(),
        row_upper=lp.row_upper.copy(),
        col_upper=lp.col_upper.copy(),
        cost=lp.cost,
    )


@pytest.mark.parametrize("seed", range(5))
def test_warm_resolve_matches_a_cold_solve(seed) -> None:
    net, demands = random_instance(seed, n_max=8)
    lp = build_mcrn_lp(net, demands).lp
    first = solve_simplex(lp)
    assert first.status is LpStatus.OPTIMAL
    columns, rows = lp.col_upper.copy(), lp.row_lower.copy()
    for column in range(lp.num_vars - 1, lp.num_vars - 4, -1):
        lp.col_upper[:] = columns
        lp.col_upper[column] = 0.0
        lp.row_lower[column % len(rows)] = 0.0
        warm, cold = solve_simplex(lp), solve_simplex(_fresh(lp))
        assert warm.status is cold.status
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
        assert np.all(warm.x <= lp.col_upper + 1e-9)
    lp.col_upper[:], lp.row_lower[:] = columns, rows
    assert solve_simplex(lp).objective == pytest.approx(first.objective, rel=1e-9)


def test_warm_resolve_checks_the_vector_against_the_current_matrix() -> None:
    # min x0 + 2 x1 s.t. x0 + x1 = 1: the optimum is (1, 0)
    lp = LinearProgram(
        matrix=scipy.sparse.coo_array(np.array([[1.0, 1.0]])),
        row_lower=np.array([1.0]),
        row_upper=np.array([1.0]),
        col_upper=np.full(2, np.inf),
        cost=np.array([1.0, 2.0]),
    )
    assert solve_simplex(lp).x.tolist() == [1.0, 0.0]
    # HiGHS still holds the old matrix, so its answer misses the new row
    lp.matrix = scipy.sparse.coo_array(np.array([[0.5, 1.0]]))
    with pytest.raises(NumericalFailureError, match="primal residual"):
        solve_simplex(lp)


def test_unbounded_program_is_a_numerical_failure_naming_the_status() -> None:
    # min -x0 s.t. x0 - x1 >= 0: no program the toolkit builds can be unbounded
    lp = LinearProgram(
        matrix=scipy.sparse.coo_array(np.array([[1.0, -1.0]])),
        row_lower=np.array([0.0]),
        row_upper=np.array([np.inf]),
        col_upper=np.full(2, np.inf),
        cost=np.array([-1.0, 0.0]),
    )
    with pytest.raises(NumericalFailureError, match="Unbounded"):
        solve_simplex(lp)
