"""Co-optimization of reconfigurable link matchings and routing to minimize
the maximum link load in hybrid networks."""

from .baselines import greedy_matching, max_weight_matching, oblivious
from .evaluation import (
    EvalSpec,
    RoutingModel,
    brute_force_opt,
    eval_matching,
    route_matching,
    solve_single_commodity_uniform,
)
from .harness import ExperimentPlan, RunRecord, run_plan, summarize
from .lp import (
    LpProblem,
    LpSolution,
    LpStatus,
    build_mcmf_lp,
    build_mcrn_lp,
    solve_lp,
)
from .model import (
    CongestionReport,
    DemandMatrix,
    DirectedLink,
    Flow,
    HybridNetwork,
    LinkKind,
    Matching,
    classify_demands,
    congestion_of,
)
from .segregated import (
    RoundedSolution,
    rescale_flows,
    round_matching,
    solve_single_source_ss,
    solve_ss,
    solve_us,
)
from .workloads import (
    SizeDistribution,
    WorkloadConfig,
    gen_k_regular,
    gen_pfabric_demands,
    load_trace,
)

__version__ = "0.1.0"

__all__ = [
    "CongestionReport",
    "DemandMatrix",
    "DirectedLink",
    "EvalSpec",
    "ExperimentPlan",
    "Flow",
    "HybridNetwork",
    "LinkKind",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "Matching",
    "RoundedSolution",
    "RoutingModel",
    "RunRecord",
    "SizeDistribution",
    "WorkloadConfig",
    "brute_force_opt",
    "build_mcmf_lp",
    "build_mcrn_lp",
    "classify_demands",
    "congestion_of",
    "eval_matching",
    "gen_k_regular",
    "gen_pfabric_demands",
    "greedy_matching",
    "load_trace",
    "max_weight_matching",
    "oblivious",
    "rescale_flows",
    "round_matching",
    "route_matching",
    "run_plan",
    "solve_lp",
    "solve_single_commodity_uniform",
    "solve_single_source_ss",
    "solve_ss",
    "solve_us",
    "summarize",
]
