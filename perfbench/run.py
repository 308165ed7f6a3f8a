"""Benchmark of the reconfnet solvers: one workload per run.

    python3 perfbench/run.py --workload plan_sparse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones.  The line before it holds
the run context.  Both, and with ``--trace 1`` every span, are also written
under ``perfbench/results/``.  The exit code is 0 when every instance passed
its checks, 1 when one failed, 2 when the package source is missing.

See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

WARMUPS = 3  # set-up repetitions; setup_s takes their median
TAIL_BEYOND = 10  # instance_s_tail: the highest percentile with this many instances beyond it

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "instance_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ss_load_ratio": "ratio",
    "us_load_ratio": "ratio",
    "ss_opt_ratio": "ratio",
    "normalized_congestion": "ratio",
}
RATIOS = ("ss_load_ratio", "us_load_ratio", "ss_opt_ratio", "normalized_congestion")

# Per-layer metrics: (name, unit).  "<layer>.s" is the time inside the
# layer's outermost calls, "<layer>.self_s" excludes time in traced callees.
PER_LAYER = (
    ("lp.solve_simplex.s", "s"),
    ("lp.solve_simplex.calls", "count"),
    ("lp.solve_simplex.iterations", "count"),
    ("lp.solve_simplex.s_per_iteration", "s"),
    ("lp.solve_simplex.not_optimal", "count"),
    ("lp.build_mcrn_lp.s", "s"),
    ("lp.build_mcrn_lp.calls", "count"),
    ("lp.build_mcmf_lp.s", "s"),
    ("lp.build_mcmf_lp.calls", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.nnz", "count"),
    ("lp.crash_basis.s", "s"),
    ("lp.crash_basis.hit_ratio", "ratio"),
    ("lp.solve_lp.self_s", "s"),
    ("lp.decompose_commodity.s", "s"),
    ("lp.decompose_commodity.calls", "count"),
    ("lp.decompose_commodity.cycles_dropped", "count"),
    ("lp.scale_paths_to.s", "s"),
    ("segregated.solve_ss.s", "s"),
    ("segregated.solve_us.s", "s"),
    ("segregated.solve_us.self_s", "s"),
    ("segregated.round_matching.s", "s"),
    ("segregated.rescale_flows.s", "s"),
    ("segregated.solve_single_source_ss.s", "s"),
    ("segregated.fractional_z", "count"),
    ("model.congestion_of.s", "s"),
    ("model.congestion_of.calls", "count"),
    ("model.validate_network.s", "s"),
    ("model.validate_network.calls", "count"),
    ("evaluation.eval_matching.s", "s"),
    ("evaluation.eval_matching.calls", "count"),
    ("evaluation.brute_force_opt.s", "s"),
    ("evaluation.solve_single_commodity_uniform.s", "s"),
    ("paths.k_shortest_paths.s", "s"),
    ("paths.k_shortest_paths.calls", "count"),
    ("maxflow.max_flow_with_matching.s", "s"),
    ("maxflow.max_flow_with_matching.calls", "count"),
    ("baselines.greedy_matching.s", "s"),
    ("baselines.max_weight_matching.s", "s"),
    ("baselines.oblivious.s", "s"),
    ("workloads.gen_k_regular.s", "s"),
    ("workloads.gen_pfabric_demands.s", "s"),
    ("workloads.convert_dense_matrix.s", "s"),
    ("workloads.load_trace.s", "s"),
    ("harness.run_plan.self_s", "s"),
    ("trace.instances", "count"),
    ("trace.instance_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass
class Tally:
    """Instances attempted and failed, and the load ratios of the good ones."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ratios: dict[str, list[float]] = field(default_factory=dict)

    def record(self, case, outcome, check, keep_ratios: bool = True) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            found = ["".join(traceback.format_exception_only(type(outcome), outcome)).strip()]
            ratios = {}
        else:
            try:
                found, ratios = check(case, outcome)
            except Exception as exc:  # a checker that crashes fails the instance
                found, ratios = [f"check raised {type(exc).__name__}: {exc}"], {}
        if found:
            self.failed += 1
            self.problems.append(f"{case!r}: " + "; ".join(found))
            return
        for name, value in ratios.items() if keep_ratios else ():
            self.ratios.setdefault(name, []).append(value)


def solve_timed(workload, case, workdir, span=None):
    """One instance: (seconds, result or the exception it raised)."""
    start = time.perf_counter()
    try:
        if span is None:
            outcome = workload.solve(case, workdir)
        else:
            outcome = span("instance", workload.solve, case, workdir)
    except Exception as exc:  # counted as a failed instance, never skipped
        outcome = exc
    return time.perf_counter() - start, outcome


def run_pass(workload, pool, workdir, tally, span=None) -> list[float]:
    """Solve every case of the pool once; check each result after the pass,
    so the checks stay out of the timed calls."""
    done = [(case, *solve_timed(workload, case, workdir, span)) for case in pool]
    for case, _seconds, outcome in done:
        tally.record(case, outcome, workload.check)
    return [seconds for _case, seconds, _outcome in done]


def tail_percentile(count: int) -> float:
    """The highest whole percentile with TAIL_BEYOND instances beyond it;
    the median when a run holds too few instances for one above it."""
    return float(max(50, math.floor(100 * (1 - TAIL_BEYOND / count))))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def blas_info() -> dict:
    """BLAS builds linked into numpy and scipy, with their thread counts.

    The thread count is read, never set: users run with the default.
    """
    import numpy

    info = {"numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")}
    libraries = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        entry = {}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        libraries[Path(path).name] = entry
    info["openblas"] = libraries
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def run_context(args, pool, extra) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": blas_info(),
        "pool": [repr(case) for case in pool],
        **extra,
    }


def end_to_end(workload, tally, samples, setup_s) -> tuple[dict, dict]:
    """``samples[k]`` holds the times of pool case k; every case has one."""
    case_s = [statistics.median(times) for times in samples]
    every = [t for times in samples for t in times]
    p_tail = tail_percentile(len(every))
    values = {
        "instances_per_s": len(case_s) / sum(case_s),
        "instance_s_p50": statistics.median(case_s),
        "instance_s_tail": percentile(every, p_tail),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    # Every run prints every end-to-end metric.  A ratio the workload has no
    # inputs for reads 1.0 and is listed as not applicable in the context; one
    # with no passing instance to average reads 0.0 (the run then fails).
    not_applicable = [name for name in RATIOS if name not in workload.ratios]
    for name in RATIOS:
        found = tally.ratios.get(name)
        values[name] = statistics.fmean(found) if found else float(name in not_applicable)
    extra = {
        "instances": len(every),
        "tail_percentile": p_tail,
        "case_s": samples,
        "not_applicable": not_applicable,
    }
    return values, extra


def per_layer(tracer, traced_times, untraced_s) -> dict:
    layers = tracer.layers()
    counters = tracer.counters
    values = {}
    for name, _unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("s", "self_s", "calls") and layer in layers:
            values[name] = layers[layer][stat]
        elif name in counters:
            values[name] = counters[name]
        else:
            values[name] = 0
    iterations = counters["lp.solve_simplex.iterations"]
    values["lp.solve_simplex.s_per_iteration"] = (
        values["lp.solve_simplex.s"] / iterations if iterations else 0.0
    )
    crash_calls = layers.get("lp.crash_basis", {}).get("calls", 0)
    values["lp.crash_basis.hit_ratio"] = counters["lp.crash_basis.hits"] / crash_calls if crash_calls else 0.0
    values["trace.instances"] = len(traced_times)
    values["trace.instance_s"] = sum(traced_times)
    values["trace.overhead_frac"] = sum(traced_times) / untraced_s - 1.0
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args, import_s: float, workdir: Path, tiny: bool = False):
    """Set up, run the workload's timed loop; return (result, context, tracer or None)."""
    import cases
    import tracer as tracing

    workload = cases.WORKLOADS[args.workload]
    tally = Tally()

    # Set-up: import (measured once, from process start) plus a fixed
    # warm-up instance of the workload's shape, repeated; not counted.
    warmup = workload.pool(0, True)[:1]
    warmups = [run_pass(workload, warmup, workdir, tally)[0] for _ in range(WARMUPS)]
    setup_s = import_s + statistics.median(warmups)

    pool = workload.pool(args.seed, tiny)
    if not args.trace:
        # One whole pass, then round the pool again until the time is spent.
        # The times are taken per case, and each case counts by its median,
        # so a pass cut short weights no case more than another.
        samples: list[list[float]] = [[] for _ in pool]
        loop_start = time.perf_counter()
        done = 0
        while done < len(pool) or time.perf_counter() - loop_start < args.seconds:
            case = pool[done % len(pool)]
            seconds, outcome = solve_timed(workload, case, workdir)
            samples[done % len(pool)].append(seconds)
            tally.record(case, outcome, workload.check, keep_ratios=done < len(pool))
            done += 1
        metrics, extra = end_to_end(workload, tally, samples, setup_s)
        units = END_TO_END_UNITS
        spans = None
    else:
        # One untraced pass, then one traced pass over the same cases.
        untraced_s = sum(run_pass(workload, pool, workdir, tally))
        spans = tracing.Tracer()
        spans.install(extra_namespaces=(cases,))
        try:
            traced = run_pass(workload, pool, workdir, tally, span=spans.span)
        finally:
            spans.uninstall()
        metrics = per_layer(spans, traced, untraced_s)
        units = dict(PER_LAYER)
        extra = {"instances": len(traced), "untraced_s": untraced_s, "layers": spans.layers()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    context = run_context(args, pool, extra)
    context["setup"] = {"import_s": import_s, "warmup_s": warmups}
    context["problems"] = tally.problems[:20]
    return result, context, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reconfnet" / "__init__.py").is_file():
        print(f"reconfnet source not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cases  # noqa: F401  (imports reconfnet, numpy, scipy and networkx)

    import_s = time.perf_counter() - _START
    if args.workload not in cases.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        result, context, spans = bench(args, import_s, Path(workdir))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({"result": result, "context": context}, indent=1))
    if spans is not None:
        spans.write(RESULTS / f"{stem}-spans.json")
    for problem in context["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
