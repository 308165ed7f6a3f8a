"""LP construction, solving, and flow decomposition."""

from .builder import (
    LpProblem,
    LpSolution,
    build_mcmf_lp,
    build_mcrn_lp,
    solve_lp,
    write_lp,
)
from .decompose import decompose_commodity, scale_paths_to, solver_noise
from .linprog import LinearProgram, LpStatus, SimplexResult, solve_simplex

__all__ = [
    "LinearProgram",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "SimplexResult",
    "build_mcmf_lp",
    "build_mcrn_lp",
    "decompose_commodity",
    "scale_paths_to",
    "solver_noise",
    "solve_lp",
    "solve_simplex",
    "write_lp",
]
