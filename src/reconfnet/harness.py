"""Experiment orchestration: sweep workload points, score every algorithm on
the same instances, and emit reproducible CSV records and summaries."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field, fields, replace
from enum import EnumMeta
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .baselines import greedy_matching, max_weight_matching, oblivious
from .errors import EmptyRecordSetError, ReconfNetError
from .evaluation import EvalSpec, RoutingModel, eval_matching
from .model import DemandMatrix, HybridNetwork, Matching, topology_records, write_topology
from .segregated import RoundedSolution, solve_ss, solve_us
from .workloads import SizeDistribution, WorkloadConfig, build_instance, write_demands

ALGORITHMS = ("mc_ss", "mc_us", "greedy", "mwm", "oblivious", "lp")
RELAXED = ("mc_ss", "mc_us", "lp")  # scored from the one shared relaxation


@dataclass(frozen=True)
class ExperimentPlan:
    """A sweep over (n, k) points with seeded repetitions.

    Every algorithm in a run sees the same generated instance and the same
    evaluation spec.  ``mc_scoring`` picks how the rounded matching is
    priced: "solver" records the load of the flow the solver itself
    constructs (carries the 2x guarantee); "eval" re-scores its matching
    under the plan's evaluation spec, like the other matching baselines.
    The fields named like ``WorkloadConfig``'s take its defaults and are
    passed to every point.
    """

    node_counts: tuple[int, ...]
    k_values: tuple[int, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    eval: EvalSpec = field(default_factory=lambda: EvalSpec(routing=RoutingModel.SS, path_limit=3))
    repetitions: int = 5
    base_seed: int = 0
    seeds: tuple[int, ...] | None = None
    default_capacity: float = WorkloadConfig.default_capacity
    rate: float = WorkloadConfig.rate
    duration: float = WorkloadConfig.duration
    size_distribution: SizeDistribution = field(default_factory=SizeDistribution.default)
    trace_path: str | None = None
    mc_scoring: str = "solver"

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
        names = {f.name for f in fields(WorkloadConfig)}
        shared = {key: value for key, value in vars(self).items() if key in names}
        grid = itertools.product(self.node_counts, self.k_values, self.seed_list())
        return [WorkloadConfig(n=n, k=k, seed=seed, **shared) for n, k, seed in grid]


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
    digest = hashlib.sha256()
    for chunk in topology_records(net):
        digest.update(chunk.encode())
    entries = sorted(demands.entries.items())
    digest.update("".join(f"D {i} {j} {d:.12g}\n" for (i, j), d in entries).encode())
    return digest.hexdigest()[:16]


def _normalized(value: float, baseline: float) -> float:
    if baseline > 0:
        return value / baseline
    return 1.0 if value == 0 else math.inf


def _timed(step) -> tuple[object, str, float]:
    """Run ``step``: its value (None if it raised), the error it raised as
    text (recorded, never silently skipped) and its wall time in ms."""
    start = time.perf_counter()
    try:
        value, error = step(), ""
    except Exception as exc:
        value, error = None, f"{type(exc).__name__}: {exc}"
    return value, error, (time.perf_counter() - start) * 1000.0


def _run_instance(plan: ExperimentPlan, config: WorkloadConfig) -> list[RunRecord]:
    net, demands = build_instance(config)
    digest = instance_hash(net, demands)
    spec = replace(plan.eval, seed=config.seed)

    # Two steps are shared, and a record that succeeds also carries the time
    # of the one it used: the oblivious routing, taken first because every
    # record is normalized by it, and the relaxation, solved at most once.
    start = time.perf_counter()
    baseline = oblivious(net, demands, spec).max_load
    shared_ms = {"oblivious": (time.perf_counter() - start) * 1000.0}
    relaxation, relaxation_error = None, ""
    if set(RELAXED) & set(plan.algorithms):
        relaxation, relaxation_error, relaxation_ms = _timed(lambda: solve_ss(net, demands))
        shared_ms.update(dict.fromkeys(RELAXED, relaxation_ms))

    def relaxed() -> RoundedSolution:
        if relaxation is None:
            raise RuntimeError(relaxation_error)
        return relaxation

    def solved(result: RoundedSolution) -> tuple[float, int]:
        return result.max_load, len(result.matching)

    def evaluated(matching: Matching) -> tuple[float, int]:
        return eval_matching(net, demands, matching, spec).max_load, len(matching)

    # (congestion, matching size) per algorithm; each solver is looked up
    # when it is called, so a wrapper installed on this module sees the call.
    scores = {
        "mc_ss": lambda: (
            evaluated(relaxed().matching) if plan.mc_scoring == "eval" else solved(relaxed())
        ),
        "mc_us": lambda: solved(
            solve_us(net, demands, trials=spec.trials, seed=spec.seed, stage1=relaxed())
        ),
        "greedy": lambda: evaluated(greedy_matching(net, demands)),
        "mwm": lambda: evaluated(max_weight_matching(net, demands)),
        "oblivious": lambda: (baseline, 0),
        "lp": lambda: (relaxed().lp_bound, 0),
    }
    records = []
    for algorithm in plan.algorithms:
        score, error, wall_ms = _timed(scores[algorithm])
        congestion, matching_size = score or (math.nan, 0)
        if not error:
            wall_ms += shared_ms.get(algorithm, 0.0)
        normalized = math.nan if error else _normalized(congestion, baseline)
        records.append(
            RunRecord(
                algorithm, config.n, config.k, plan.eval.routing.value, config.seed, congestion,
                normalized, round(wall_ms, 3), matching_size, digest, error,
            )
        )
    return records


def run_plan(plan: ExperimentPlan, workers: int = 1) -> list[RunRecord]:
    """Execute the plan; records come back in deterministic order."""
    configs = plan.points()
    if workers > 1:
        # Deferred: multiprocessing adds tens of milliseconds to every
        # process that imports the package, and only parallel runs need it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_instance, [plan] * len(configs), configs))
    else:
        chunks = [_run_instance(plan, config) for config in configs]
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: (r.n, r.k, r.seed, ALGORITHMS.index(r.algorithm)))
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


def _mean_sd(values: list[float]) -> tuple[float, float]:
    return statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Per (algorithm, n, k, routing): mean and sample sd over seeds, plus the
    ratio of the mean congestion to the mean LP bound of the same point."""
    if not records:
        raise EmptyRecordSetError("no records to summarize")
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        if not r.error:
            groups.setdefault((r.algorithm, r.n, r.k, r.routing), []).append(r)
    lp_means = {
        key[1:]: statistics.fmean(r.congestion for r in group)
        for key, group in groups.items()
        if key[0] == "lp"
    }
    rows = []
    for key in sorted(groups, key=lambda g: (*g[1:], ALGORITHMS.index(g[0]))):
        group = groups[key]
        congestion = _mean_sd([r.congestion for r in group])
        normalized = _mean_sd([r.congestion_normalized for r in group])
        lp_mean = lp_means.get(key[1:])
        ratio = congestion[0] / lp_mean if lp_mean else math.nan
        rows.append(SummaryRow(*key, len(group), *congestion, *normalized, ratio))
    return rows


def _format(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)  # nan reads "nan"


def write_records(rows: list, path, row_type: type = RunRecord) -> None:
    """Write ``rows`` of ``row_type`` (a ``RunRecord`` or a ``SummaryRow``)
    as CSV, one column per field in field order."""
    columns = [f.name for f in fields(row_type)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_format(getattr(row, col)) for col in columns] for row in rows)


def write_jsonl(records: list[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            payload = {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in asdict(record).items()
            }
            fh.write(json.dumps(payload, sort_keys=True) + "\n")


def export_instance(net: HybridNetwork, demands: DemandMatrix, topo_path, demand_path) -> str:
    """Write instance files and return their digest."""
    write_topology(net, topo_path)
    write_demands(demands, demand_path)
    return instance_hash(net, demands)


_BAD = object()  # a plan value whose JSON type does not fit its field


def _describe(hint) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return f"{_describe(args[0])} or null"
    if origin is tuple:
        return f"a list of {_describe(args[0]).split()[-1]}s"
    if isinstance(hint, EnumMeta):
        return "one of " + ", ".join(repr(member.value) for member in hint)
    names = {int: "an integer", float: "a number", str: "a string"}
    return names.get(hint, "a list of [size, probability] pairs")  # SizeDistribution


def _from_json(value, hint):
    """A plan value as a value of the field type ``hint``, or ``_BAD``.

    JSON lists become tuples, strings become enum members, ``null`` fills an
    optional field, and a list of [size, probability] pairs becomes a
    ``SizeDistribution``; a bool never counts as a number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # ``X | None``
        return None if value is None else _from_json(value, args[0])
    if origin is tuple:
        if not isinstance(value, list):
            return _BAD
        items = tuple(_from_json(item, args[0]) for item in value)
        return _BAD if _BAD in items else items
    if hint is SizeDistribution:
        pairs = _from_json(value, tuple[tuple[float, ...], ...])
        if pairs is _BAD or not pairs or any(len(pair) != 2 for pair in pairs):
            return _BAD
        return SizeDistribution(*(tuple(map(float, column)) for column in zip(*pairs)))
    if isinstance(hint, EnumMeta):
        return hint(value) if value in [member.value for member in hint] else _BAD
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        return _BAD
    return value


def _plan_fields(payload: dict, cls: type, prefix: str = "") -> dict:
    """The keys of a plan-file object as field values of ``cls``; an unknown
    key or a value of the wrong type is refused with an error naming it."""
    hints = get_type_hints(cls)
    values = {}
    for key, value in payload.items():
        if key not in hints:
            raise ReconfNetError(f"unknown plan key {prefix + key!r}")
        values[key] = _from_json(value, hints[key])
        if values[key] is _BAD:
            expected = _describe(hints[key])
            raise ReconfNetError(f"plan key {prefix + key!r} must be {expected}, not {value!r}")
    return values


def plan_from_json(payload: dict) -> ExperimentPlan:
    """Build a plan from a parsed JSON config (the CLI's --plan format).

    Each key is a field of ``ExperimentPlan``, and the keys of ``eval`` are
    fields of ``EvalSpec`` other than ``seed``, which every instance takes
    from its own seed; a key left out takes the field's default.  When
    the plan does not pin a path limit, splittable runs default to the three
    shortest paths and unsplittable runs to one, the usual operational
    restriction at these scales.  A plan that is not a JSON object, lacks
    ``node_counts`` or ``k_values``, holds an unknown key or a value of the
    wrong type is refused with an error naming the key.
    """
    if not isinstance(payload, dict):
        raise ReconfNetError(f"plan must be a JSON object, not a {type(payload).__name__}")
    missing = [key for key in ("node_counts", "k_values") if key not in payload]
    if missing:
        raise ReconfNetError(f"plan is missing the required key(s): {', '.join(missing)}")
    given = dict(payload)
    eval_given = given.pop("eval", {})
    if not isinstance(eval_given, dict):
        raise ReconfNetError(f"plan key 'eval' must be an object, not {eval_given!r}")
    if "seed" in eval_given:
        raise ReconfNetError("plan key 'eval.seed' is refused: every instance uses its own seed")
    plan = ExperimentPlan(**_plan_fields(given, ExperimentPlan))
    spec = replace(plan.eval, **_plan_fields(eval_given, EvalSpec, "eval."))
    if "path_limit" not in eval_given and not spec.routing.splittable:
        spec = replace(spec, path_limit=1)
    return replace(plan, eval=spec)
