"""Experiment orchestration: sweep workload points, score every algorithm on
the same instances, and emit reproducible CSV records and summaries."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .baselines import greedy_matching, max_weight_matching, oblivious
from .errors import EmptyRecordSetError, ReconfNetError
from .evaluation import EvalSpec, RoutingModel, eval_matching
from .model import DemandMatrix, HybridNetwork, topology_records, write_topology
from .segregated import solve_ss, solve_us
from .workloads import SizeDistribution, WorkloadConfig, build_instance, write_demands

ALGORITHMS = ("mc_ss", "mc_us", "greedy", "mwm", "oblivious", "lp")

RECORD_COLUMNS = (
    "algorithm",
    "n",
    "k",
    "routing",
    "seed",
    "congestion",
    "congestion_normalized",
    "wall_time_ms",
    "matching_size",
    "instance_hash",
    "error",
)

SUMMARY_COLUMNS = (
    "algorithm",
    "n",
    "k",
    "routing",
    "runs",
    "congestion_mean",
    "congestion_sd",
    "normalized_mean",
    "normalized_sd",
    "ratio_to_lp",
)


@dataclass(frozen=True)
class ExperimentPlan:
    """A sweep over (n, k) points with seeded repetitions.

    Every algorithm in a run sees the same generated instance and the same
    evaluation spec.  ``mc_scoring`` picks how the rounded matching is
    priced: "solver" records the load of the flow the solver itself
    constructs (carries the 2x guarantee); "eval" re-scores its matching
    under the plan's evaluation spec, like the other matching baselines.
    """

    node_counts: tuple[int, ...]
    k_values: tuple[int, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    eval: EvalSpec = field(default_factory=lambda: EvalSpec(routing=RoutingModel.SS, path_limit=3))
    repetitions: int = 5
    base_seed: int = 0
    seeds: tuple[int, ...] | None = None
    default_capacity: float = 1.0
    rate: float = 10.0
    duration: float = 1.0
    size_distribution: SizeDistribution = field(default_factory=SizeDistribution.default)
    trace_path: str | None = None
    mc_scoring: str = "solver"
    us_trials: int | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if self.mc_scoring not in ("solver", "eval"):
            raise ValueError("mc_scoring must be 'solver' or 'eval'")

    def seed_list(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(self.seeds)
        return tuple(self.base_seed + r for r in range(self.repetitions))

    def points(self) -> list[WorkloadConfig]:
        out = []
        for n in self.node_counts:
            for k in self.k_values:
                for seed in self.seed_list():
                    out.append(
                        WorkloadConfig(
                            n=n,
                            k=k,
                            seed=seed,
                            default_capacity=self.default_capacity,
                            rate=self.rate,
                            duration=self.duration,
                            size_distribution=self.size_distribution,
                            trace_path=self.trace_path,
                        )
                    )
        return out


@dataclass(frozen=True)
class RunRecord:
    algorithm: str
    n: int
    k: int
    routing: str
    seed: int
    congestion: float
    congestion_normalized: float
    wall_time_ms: float
    matching_size: int
    instance_hash: str
    error: str = ""


def instance_hash(net: HybridNetwork, demands: DemandMatrix) -> str:
    """Stable digest of the serialized instance all algorithms consume."""
    topo = io.StringIO()
    topo.writelines(record + "\n" for record in topology_records(net))
    for (i, j), d in sorted(demands.entries.items()):
        topo.write(f"D {i} {j} {d:.12g}\n")
    return hashlib.sha256(topo.getvalue().encode()).hexdigest()[:16]


def _normalized(value: float, baseline: float) -> float:
    if baseline > 0:
        return value / baseline
    return 1.0 if value == 0 else math.inf


def _run_instance(plan: ExperimentPlan, config: WorkloadConfig) -> list[RunRecord]:
    net, demands = build_instance(config)
    digest = instance_hash(net, demands)
    spec = replace(plan.eval, seed=config.seed)
    records: list[RunRecord] = []

    start = time.perf_counter()
    oblivious_load = oblivious(net, demands, spec).max_load
    oblivious_ms = (time.perf_counter() - start) * 1000.0

    ss_solution = None
    lp_bound = None

    def needs_relaxation() -> bool:
        return bool({"mc_ss", "mc_us", "lp"} & set(plan.algorithms))

    if needs_relaxation():
        start = time.perf_counter()
        try:
            ss_solution = solve_ss(net, demands)
            lp_bound = ss_solution.lp_bound
            ss_time_ms = (time.perf_counter() - start) * 1000.0
            ss_error = ""
        except Exception as exc:  # recorded, never silently skipped
            ss_time_ms = (time.perf_counter() - start) * 1000.0
            ss_error = f"{type(exc).__name__}: {exc}"

    for algorithm in plan.algorithms:
        start = time.perf_counter()
        error = ""
        congestion = math.nan
        matching_size = 0
        try:
            if algorithm == "oblivious":
                congestion = oblivious_load
            elif algorithm == "greedy":
                matching = greedy_matching(net, demands)
                matching_size = len(matching)
                congestion = eval_matching(net, demands, matching, spec).max_load
            elif algorithm == "mwm":
                matching = max_weight_matching(net, demands)
                matching_size = len(matching)
                congestion = eval_matching(net, demands, matching, spec).max_load
            elif algorithm == "lp":
                if ss_solution is None:
                    raise RuntimeError(ss_error or "relaxation unavailable")
                congestion = lp_bound
            elif algorithm == "mc_ss":
                if ss_solution is None:
                    raise RuntimeError(ss_error or "relaxation unavailable")
                matching_size = len(ss_solution.matching)
                if plan.mc_scoring == "solver":
                    congestion = ss_solution.max_load
                else:
                    congestion = eval_matching(net, demands, ss_solution.matching, spec).max_load
            elif algorithm == "mc_us":
                if ss_solution is None:
                    raise RuntimeError(ss_error or "relaxation unavailable")
                result = solve_us(
                    net,
                    demands,
                    trials=plan.us_trials,
                    seed=config.seed,
                    stage1=ss_solution,
                )
                matching_size = len(result.matching)
                congestion = result.max_load
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall_ms = (time.perf_counter() - start) * 1000.0
        if algorithm == "oblivious":
            wall_ms += oblivious_ms  # routed first, since every record normalizes by it
        if algorithm in ("mc_ss", "mc_us", "lp") and not error:
            wall_ms += ss_time_ms  # the shared relaxation is part of their cost
        records.append(
            RunRecord(
                algorithm=algorithm,
                n=config.n,
                k=config.k,
                routing=plan.eval.routing.value,
                seed=config.seed,
                congestion=congestion,
                congestion_normalized=_normalized(congestion, oblivious_load)
                if not error
                else math.nan,
                wall_time_ms=round(wall_ms, 3),
                matching_size=matching_size,
                instance_hash=digest,
                error=error,
            )
        )
    return records


def run_plan(plan: ExperimentPlan, workers: int = 1) -> list[RunRecord]:
    """Execute the plan; records come back in deterministic order."""
    configs = plan.points()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_instance, [plan] * len(configs), configs))
    else:
        chunks = [_run_instance(plan, config) for config in configs]
    records = [record for chunk in chunks for record in chunk]
    order = {name: idx for idx, name in enumerate(ALGORITHMS)}
    records.sort(key=lambda r: (r.n, r.k, r.seed, order[r.algorithm]))
    return records


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    n: int
    k: int
    routing: str
    runs: int
    congestion_mean: float
    congestion_sd: float
    normalized_mean: float
    normalized_sd: float
    ratio_to_lp: float


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Per (algorithm, n, k, routing): mean and sample sd over seeds, plus the
    ratio of the mean congestion to the mean LP bound of the same point."""
    if not records:
        raise EmptyRecordSetError("no records to summarize")
    groups: dict[tuple, list[RunRecord]] = {}
    for record in records:
        if record.error:
            continue
        groups.setdefault((record.algorithm, record.n, record.k, record.routing), []).append(record)

    lp_means: dict[tuple, float] = {}
    for (algorithm, n, k, routing), group in groups.items():
        if algorithm == "lp":
            lp_means[(n, k, routing)] = statistics.fmean(r.congestion for r in group)

    rows: list[SummaryRow] = []
    order = {name: idx for idx, name in enumerate(ALGORITHMS)}
    for key in sorted(groups, key=lambda g: (g[1], g[2], g[3], order[g[0]])):
        algorithm, n, k, routing = key
        group = groups[key]
        values = [r.congestion for r in group]
        normalized = [r.congestion_normalized for r in group]
        lp_mean = lp_means.get((n, k, routing))
        rows.append(
            SummaryRow(
                algorithm=algorithm,
                n=n,
                k=k,
                routing=routing,
                runs=len(group),
                congestion_mean=statistics.fmean(values),
                congestion_sd=statistics.stdev(values) if len(values) > 1 else 0.0,
                normalized_mean=statistics.fmean(normalized),
                normalized_sd=statistics.stdev(normalized) if len(normalized) > 1 else 0.0,
                ratio_to_lp=(statistics.fmean(values) / lp_mean)
                if lp_mean
                else math.nan,
            )
        )
    return rows


def _format(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def write_records(records: list[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for record in records:
            writer.writerow([_format(getattr(record, col)) for col in RECORD_COLUMNS])


def write_summary(rows: list[SummaryRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_format(getattr(row, col)) for col in SUMMARY_COLUMNS])


def write_jsonl(records: list[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            payload = {col: getattr(record, col) for col in RECORD_COLUMNS}
            payload = {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in payload.items()
            }
            fh.write(json.dumps(payload, sort_keys=True) + "\n")


def export_instance(net: HybridNetwork, demands: DemandMatrix, topo_path, demand_path) -> str:
    """Write instance files and return their digest."""
    write_topology(net, topo_path)
    write_demands(demands, demand_path)
    return instance_hash(net, demands)


def plan_from_json(payload: dict) -> ExperimentPlan:
    """Build a plan from a parsed JSON config (the CLI's --plan format).

    When the plan does not pin a path limit, splittable runs default to the
    three shortest paths and unsplittable runs to one, the usual operational
    restriction at these scales.  A plan that is not a JSON object, lacks
    ``node_counts`` or ``k_values``, or holds anything but a list of integers
    under them or ``seeds`` is refused with an error naming the key.
    """
    if not isinstance(payload, dict):
        raise ReconfNetError(f"plan must be a JSON object, not a {type(payload).__name__}")
    missing = [key for key in ("node_counts", "k_values") if key not in payload]
    if missing:
        raise ReconfNetError(f"plan is missing the required key(s): {', '.join(missing)}")
    for key in ("node_counts", "k_values", "seeds"):
        value = payload.get(key, [])
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ReconfNetError(f"plan key {key!r} must be a list of integers, not {value!r}")
    eval_payload = payload.get("eval", {})
    routing = RoutingModel(eval_payload.get("routing", "ss"))
    default_limit = 3 if routing.splittable else 1
    spec = EvalSpec(
        routing=routing,
        path_limit=eval_payload.get("path_limit", default_limit),
        trials=eval_payload.get("trials"),
        seed=eval_payload.get("seed", 0),
    )
    sizes = payload.get("size_distribution")
    if sizes is None:
        distribution = SizeDistribution.default()
    else:
        distribution = SizeDistribution(
            sizes=tuple(float(s) for s, _ in sizes),
            probabilities=tuple(float(p) for _, p in sizes),
        )
    return ExperimentPlan(
        node_counts=tuple(payload["node_counts"]),
        k_values=tuple(payload["k_values"]),
        algorithms=tuple(payload.get("algorithms", ALGORITHMS)),
        eval=spec,
        repetitions=payload.get("repetitions", 5),
        base_seed=payload.get("base_seed", 0),
        seeds=tuple(payload["seeds"]) if "seeds" in payload else None,
        default_capacity=payload.get("default_capacity", 1.0),
        rate=payload.get("rate", 10.0),
        duration=payload.get("duration", 1.0),
        size_distribution=distribution,
        trace_path=payload.get("trace_path"),
        mc_scoring=payload.get("mc_scoring", "solver"),
        us_trials=payload.get("us_trials"),
    )
