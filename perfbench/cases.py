"""The benchmark's four workloads: inputs made from a seed, the program calls
that are timed, and the checks on their outputs.

Each workload is a fixed-size pool of cases.  ``pool(seed)`` makes the cases
(the same seed gives the same cases), ``solve(case, workdir)`` makes the
program calls that are timed, and ``check(case, result)`` returns the
problems found in a result (empty when correct) together with the load
ratios the result yields.  The package is reached only through its public
functions, looked up on their modules at call time so that the traced run
sees every call the benchmark makes.

Why the pools are built the way they are is set out in README.md: in short,
the cost of one instance of the same shape varies up to 16x from one
generator seed to the next, so a run that drew all its instances from the
seed would spread by 20-30% between seeds.  Each pool therefore has a fixed
ladder of base instances; the seed relabels their nodes where the benchmark
builds the instances, and orders the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from reconfnet import evaluation, harness, model, segregated, workloads

REL_TOL = 1e-9  # slack on bound checks: loads are sums of rescaled floats
ORACLE_TOL = 1e-7  # the special-case solvers must equal the oracle this closely


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable[[int, bool], list]
    solve: Callable[[Any, Path], Any]
    check: Callable[[Any, Any], tuple[list[str], dict[str, float]]]
    ratios: tuple[str, ...]


def _within(low: float, value: float, high: float) -> bool:
    return low * (1 - REL_TOL) <= value <= high * (1 + REL_TOL)


def _permutation(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.permutation(n))


def _relabel_links(links, perm):
    """Static (u, v, cap_uv, cap_vu) tuples with nodes renamed by ``perm``."""
    out = []
    for u, v, cap_uv, cap_vu in links:
        a, b = perm[u], perm[v]
        out.append((a, b, cap_uv, cap_vu) if a < b else (b, a, cap_vu, cap_uv))
    return sorted(out)


def _serves_exactly(flow, demands) -> list[str]:
    """Each commodity leaves its source with exactly its demand, conserved."""
    problems = []
    for (i, j), d in demands.entries.items():
        sent = flow.net_outflow((i, j), i)
        if not math.isclose(sent, d, rel_tol=REL_TOL, abs_tol=REL_TOL):
            problems.append(f"commodity {(i, j)} sends {sent!r}, demand {d!r}")
        if flow.conservation_residual((i, j)) > REL_TOL * max(1.0, d):
            problems.append(f"commodity {(i, j)} is not conserved")
    if set(flow.by_commodity) - set(demands.commodities()):
        problems.append("flow carries a commodity with no demand")
    return problems


# ---------------------------------------------------------------------------
# plan_sparse: the harness flow of `reconfnet experiment`.
# ---------------------------------------------------------------------------

PLAN_ALGORITHMS = ("mc_ss", "mc_us", "greedy", "mwm", "oblivious", "lp")
MATCHING_ALGORITHMS = ("mc_ss", "mc_us", "greedy", "mwm")
# Plan-point seeds of the fixed ladders.  run_plan generates each instance
# from its plan seed, so for the two run_plan workloads the benchmark seed
# can only choose the order of the ladder.
PLAN_SPARSE_LADDER = (0, 1, 2, 3)


@dataclass(frozen=True)
class PlanCase:
    n: int
    rate: float
    plan_seed: int
    algorithms: tuple[str, ...]
    routing: str
    path_limit: int


def _ordered_plans(seed, ladder, n, rate, algorithms, routing, path_limit) -> list[PlanCase]:
    order = np.random.default_rng(seed).permutation(len(ladder))
    return [PlanCase(n, rate, ladder[int(i)], algorithms, routing, path_limit) for i in order]


def plan_sparse_pool(seed: int, tiny: bool = False) -> list[PlanCase]:
    if tiny:
        return _ordered_plans(seed, PLAN_SPARSE_LADDER[:2], 12, 6.0, PLAN_ALGORITHMS, "ss", 3)
    return _ordered_plans(seed, PLAN_SPARSE_LADDER, 32, 24.0, PLAN_ALGORITHMS, "ss", 3)


def solve_plan(case: PlanCase, workdir: Path):
    plan = harness.ExperimentPlan(
        node_counts=(case.n,),
        k_values=(4,),
        algorithms=case.algorithms,
        eval=evaluation.EvalSpec(evaluation.RoutingModel(case.routing), path_limit=case.path_limit),
        seeds=(case.plan_seed,),
        rate=case.rate,
        mc_scoring="solver",
    )
    return harness.run_plan(plan)


def check_plan(case: PlanCase, records) -> tuple[list[str], dict[str, float]]:
    by_algo = {r.algorithm: r for r in records}
    if sorted(by_algo) != sorted(case.algorithms) or len(records) != len(case.algorithms):
        return [f"records for {sorted(by_algo)}, expected {sorted(case.algorithms)}"], {}
    problems = [f"{r.algorithm}: {r.error}" for r in records if r.error]
    if problems:
        return problems, {}
    for r in records:
        if not (math.isfinite(r.congestion) and r.congestion > 0):
            problems.append(f"{r.algorithm}: congestion {r.congestion!r}")
    oblivious_load = by_algo["oblivious"].congestion
    for r in records:
        expected = r.congestion / oblivious_load
        if not math.isclose(r.congestion_normalized, expected, rel_tol=REL_TOL):
            problems.append(f"{r.algorithm}: normalized {r.congestion_normalized!r} != {expected!r}")
    if problems:
        return problems, {}
    ratios = {
        "normalized_congestion": float(
            np.mean([by_algo[a].congestion_normalized for a in MATCHING_ALGORITHMS if a in by_algo])
        )
    }
    if "lp" in by_algo:
        bound = by_algo["lp"].congestion
        mc_ss = by_algo["mc_ss"].congestion
        if not _within(bound, mc_ss, 2 * bound):
            problems.append(f"mc_ss load {mc_ss!r} outside [{bound!r}, 2 x bound]")
        for algo in ("mc_us", "greedy", "mwm", "oblivious"):
            if not _within(bound, by_algo[algo].congestion, math.inf):
                problems.append(f"{algo} load {by_algo[algo].congestion!r} below the LP bound {bound!r}")
        ratios["ss_load_ratio"] = mc_ss / bound
        ratios["us_load_ratio"] = by_algo["mc_us"].congestion / bound
    return problems, ratios


# ---------------------------------------------------------------------------
# dense_trace: an all-pairs heavy-tailed matrix through trace ingestion.
# ---------------------------------------------------------------------------

DENSE_LADDER = tuple(range(32))


@dataclass(frozen=True)
class DenseCase:
    n: int
    base_seed: int
    perm: tuple[int, ...]


def dense_trace_pool(seed: int, tiny: bool = False) -> list[DenseCase]:
    n = 6 if tiny else 8
    ladder = DENSE_LADDER[:2] if tiny else DENSE_LADDER
    rng = np.random.default_rng(seed)
    cases = [DenseCase(n, base, _permutation(rng, n)) for base in ladder]
    return [cases[int(i)] for i in rng.permutation(len(cases))]


def dense_volumes(case: DenseCase) -> np.ndarray:
    """Integer Pareto(1.2) volumes for every ordered pair, relabeled.

    Integers keep the file round trip exact, so the ingested total must equal
    the generated one to the last bit.
    """
    rng = np.random.default_rng(case.base_seed)
    base = np.floor(10 * (rng.pareto(1.2, size=(case.n, case.n)) + 1)).astype(np.int64)
    np.fill_diagonal(base, 0)
    perm = np.asarray(case.perm)
    out = np.zeros_like(base)
    out[np.ix_(perm, perm)] = base
    return out


@dataclass
class DenseResult:
    volumes: np.ndarray
    net: Any
    demands: Any
    ss: Any
    us: Any


def solve_dense(case: DenseCase, workdir: Path) -> DenseResult:
    volumes = dense_volumes(case)
    topology = workloads.gen_k_regular(case.n, 4, case.base_seed)
    static = _relabel_links(
        [(l.u, l.v, l.cap_uv, l.cap_vu) for l in topology.static_links], case.perm
    )
    net = model.HybridNetwork.build(case.n, static, reconf_default=1.0)
    dense_path = workdir / "dense.txt"
    csv_path = workdir / "dense.csv"
    dense_path.write_text("\n".join(" ".join(str(v) for v in row) for row in volumes) + "\n")
    workloads.convert_dense_matrix(dense_path, csv_path)
    demands, _summary = workloads.load_trace(csv_path, remap=False)
    ss = segregated.solve_ss(net, demands)
    us = segregated.solve_us(net, demands, seed=case.base_seed, stage1=ss)
    return DenseResult(volumes, net, demands, ss, us)


def check_dense(case: DenseCase, result: DenseResult) -> tuple[list[str], dict[str, float]]:
    problems = []
    n = case.n
    if result.demands.total() != float(result.volumes.sum()):
        problems.append(f"ingested total {result.demands.total()!r} != generated {result.volumes.sum()}")
    if len(result.demands.commodities()) != n * (n - 1):
        problems.append(f"{len(result.demands.commodities())} commodities, expected {n * (n - 1)}")
    ss, us = result.ss, result.us
    bound = ss.lp_bound
    if not _within(bound, ss.max_load, 2 * bound):
        problems.append(f"solve_ss load {ss.max_load!r} outside [{bound!r}, 2 x bound]")
    if not _within(bound, us.max_load, math.inf):
        problems.append(f"solve_us load {us.max_load!r} below the LP bound {bound!r}")
    if us.matching != ss.matching:
        problems.append("solve_us changed the stage-1 matching")
    for label, solution in (("solve_ss", ss), ("solve_us", us)):
        problems += [f"{label}: {p}" for p in _serves_exactly(solution.flow, result.demands)]
        recomputed = model.congestion_of(result.net, solution.matching, solution.flow).max_load
        if not math.isclose(recomputed, solution.max_load, rel_tol=REL_TOL):
            problems.append(f"{label}: reported load {solution.max_load!r}, flow gives {recomputed!r}")
    per_commodity: dict = {}
    for commodity, _arcs, _amount in us.flow.paths or ():
        per_commodity[commodity] = per_commodity.get(commodity, 0) + 1
    for commodity in result.demands.without_pairs(us.matching.pairs).commodities():
        if per_commodity.get(commodity) != 1:
            problems.append(f"solve_us routes {commodity} on {per_commodity.get(commodity, 0)} paths")
    if problems:
        return problems, {}
    return [], {"ss_load_ratio": ss.max_load / bound, "us_load_ratio": us.max_load / bound}


# ---------------------------------------------------------------------------
# toy_oracle: exhaustive optimum against the solvers on toy instances.
# ---------------------------------------------------------------------------

TOY_LADDER = tuple(range(40))


@dataclass(frozen=True)
class ToyCase:
    n: int
    static: tuple  # (u, v, cap_uv, cap_vu) with capacities in {1, 2, 3}
    overrides: tuple  # ((i, j), (cap_ij, cap_ji)) for every candidate pair
    uniform_static: tuple  # the same topology with unit capacities
    demands: tuple  # ((i, j), d): the general instance
    single_source: tuple  # ((i, j), d): all pairs share one endpoint
    commodity: tuple  # (s, t, d): the single-commodity instance


def _toy_base(base_seed: int, n: int):
    """Modelled on the test suite's random_instance: a connected k-regular
    topology (k in {3, 4}), capacities and demands drawn from {1, 2, 3}.

    The node count is fixed rather than drawn: instance cost grows steeply
    with n, and a pool mixing sizes puts its median instance in the gap
    between two size clusters, where relabeling moves it by 20%.
    """
    rng = np.random.default_rng(base_seed)
    while True:
        k = int(rng.choice([3, 4]))
        if k < n and (n * k) % 2 == 0:
            break
    topology = workloads.gen_k_regular(n, k, seed=int(rng.integers(2**31)))
    static = [(l.u, l.v, float(rng.integers(1, 4)), float(rng.integers(1, 4))) for l in topology.static_links]
    overrides = {
        (l.u, l.v): (float(rng.integers(1, 4)), float(rng.integers(1, 4)))
        for l in topology.reconf_links
    }
    count = int(rng.integers(1, max(2, n)))
    demands: dict = {}
    attempts = 0
    while len(demands) < count and attempts < 10 * count:
        attempts += 1
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j:
            demands[(i, j)] = float(rng.integers(1, 4))
    source = int(rng.integers(n))
    targets = rng.permutation([v for v in range(n) if v != source])[: int(rng.integers(1, n - 1))]
    single_source = {(source, int(t)): float(rng.integers(1, 4)) for t in targets}
    if rng.integers(2):
        single_source = {(j, i): d for (i, j), d in single_source.items()}
    s = int(rng.integers(n))
    t = int(rng.integers(n - 1))
    t += t >= s
    uniform = [(l.u, l.v, 1.0, 1.0) for l in topology.static_links]
    return n, static, overrides, uniform, demands, single_source, (s, t, float(rng.integers(1, 10)))


def toy_oracle_pool(seed: int, tiny: bool = False) -> list[ToyCase]:
    size, ladder = (5, TOY_LADDER[:2]) if tiny else (6, TOY_LADDER)
    rng = np.random.default_rng(seed)
    cases = []
    for base in ladder:
        n, static, overrides, uniform, demands, single_source, (s, t, d) = _toy_base(base, size)
        perm = _permutation(rng, n)

        def rename(entries):
            return tuple(sorted(((perm[i], perm[j]), v) for (i, j), v in entries.items()))

        renamed_overrides = {}
        for (i, j), (cap_ij, cap_ji) in overrides.items():
            a, b = perm[i], perm[j]
            renamed_overrides[(a, b) if a < b else (b, a)] = (cap_ij, cap_ji) if a < b else (cap_ji, cap_ij)
        cases.append(
            ToyCase(
                n=n,
                static=tuple(_relabel_links(static, perm)),
                overrides=tuple(sorted(renamed_overrides.items())),
                uniform_static=tuple(_relabel_links(uniform, perm)),
                demands=rename(demands),
                single_source=rename(single_source),
                commodity=(perm[s], perm[t], d),
            )
        )
    return [cases[int(i)] for i in rng.permutation(len(cases))]


@dataclass
class ToyResult:
    net: Any
    demands: Any
    opt_ss: float
    opt_sn: float
    ss: Any
    opt_single_source: float
    single_source: float
    opt_commodity: float
    commodity: float


def solve_toy(case: ToyCase, workdir: Path) -> ToyResult:
    ss_spec = evaluation.EvalSpec(evaluation.RoutingModel.SS)
    sn_spec = evaluation.EvalSpec(evaluation.RoutingModel.SN)
    net = model.HybridNetwork.build(case.n, case.static, reconf_overrides=dict(case.overrides))
    demands = model.DemandMatrix(dict(case.demands))
    _, opt_ss = evaluation.brute_force_opt(net, demands, ss_spec)
    _, opt_sn = evaluation.brute_force_opt(net, demands, sn_spec)
    ss = segregated.solve_ss(net, demands)

    source_demands = model.DemandMatrix(dict(case.single_source))
    _, opt_source = evaluation.brute_force_opt(net, source_demands, ss_spec)
    source = segregated.solve_single_source_ss(net, source_demands)

    uniform = model.HybridNetwork.build(case.n, case.uniform_static, reconf_default=1.0)
    s, t, d = case.commodity
    commodity_demands = model.DemandMatrix({(s, t): d})
    _, opt_commodity = evaluation.brute_force_opt(uniform, commodity_demands, sn_spec)
    _, commodity = evaluation.solve_single_commodity_uniform(uniform, commodity_demands)
    return ToyResult(
        net,
        demands,
        opt_ss.max_load,
        opt_sn.max_load,
        ss,
        opt_source.max_load,
        source.max_load,
        opt_commodity.max_load,
        commodity.max_load,
    )


def check_toy(case: ToyCase, result: ToyResult) -> tuple[list[str], dict[str, float]]:
    problems = []
    ss = result.ss
    if not _within(ss.lp_bound, result.opt_ss, ss.max_load):
        problems.append(f"ss optimum {result.opt_ss!r} outside [LP {ss.lp_bound!r}, solve_ss {ss.max_load!r}]")
    if not _within(ss.lp_bound, ss.max_load, 2 * ss.lp_bound):
        problems.append(f"solve_ss load {ss.max_load!r} outside [{ss.lp_bound!r}, 2 x bound]")
    if not _within(0.0, result.opt_sn, result.opt_ss):
        problems.append(f"sn optimum {result.opt_sn!r} above the ss optimum {result.opt_ss!r}")
    problems += [f"solve_ss: {p}" for p in _serves_exactly(ss.flow, result.demands)]
    for label, got, oracle in (
        ("solve_single_source_ss", result.single_source, result.opt_single_source),
        ("solve_single_commodity_uniform", result.commodity, result.opt_commodity),
    ):
        if not math.isclose(got, oracle, rel_tol=ORACLE_TOL, abs_tol=ORACLE_TOL):
            problems.append(f"{label} gives {got!r}, the oracle {oracle!r}")
    if problems:
        return problems, {}
    return [], {
        "ss_load_ratio": ss.max_load / ss.lp_bound,
        "ss_opt_ratio": ss.max_load / result.opt_ss,
    }


# ---------------------------------------------------------------------------
# baselines_large: the LP-free control at n=200.
# ---------------------------------------------------------------------------

BASELINE_ALGORITHMS = ("greedy", "mwm", "oblivious")
BASELINES_LARGE_LADDER = tuple(range(8))


def baselines_large_pool(seed: int, tiny: bool = False) -> list[PlanCase]:
    if tiny:
        return _ordered_plans(seed, BASELINES_LARGE_LADDER[:2], 40, 40.0, BASELINE_ALGORITHMS, "un", 1)
    return _ordered_plans(seed, BASELINES_LARGE_LADDER, 200, 100.0, BASELINE_ALGORITHMS, "un", 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plan_sparse",
            plan_sparse_pool,
            solve_plan,
            check_plan,
            ("ss_load_ratio", "us_load_ratio", "normalized_congestion"),
        ),
        Workload(
            "dense_trace",
            dense_trace_pool,
            solve_dense,
            check_dense,
            ("ss_load_ratio", "us_load_ratio"),
        ),
        Workload(
            "toy_oracle",
            toy_oracle_pool,
            solve_toy,
            check_toy,
            ("ss_load_ratio", "ss_opt_ratio"),
        ),
        Workload(
            "baselines_large",
            baselines_large_pool,
            solve_plan,
            check_plan,
            ("normalized_congestion",),
        ),
    )
}
