"""Command-line interface: generate instances, solve them, run experiments.

Exit codes: 0 success, 2 usage error, 3 I/O failure, 4 capability refused
(exact solving requested beyond tractable limits).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import greedy_matching, max_weight_matching, oblivious
from .errors import (
    InstanceTooLargeError,
    ReconfNetError,
    TopologyParseError,
    TraceParseError,
)
from .evaluation import (
    EvalSpec,
    RoutingModel,
    brute_force_opt,
    eval_matching,
    solve_single_commodity_uniform,
)
from .harness import (
    SummaryRow,
    export_instance,
    plan_from_json,
    run_plan,
    summarize,
    write_jsonl,
    write_records,
)
from .lp import build_mcrn_lp, write_lp
from .model import (
    DemandStructure,
    Matching,
    arc_order,
    classify_demands,
    read_topology,
)
from .segregated import solve_single_source_ss, solve_ss, solve_us
from .workloads import WorkloadConfig, build_instance, load_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAPABILITY = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconfnet",
        description="Matching/routing co-optimization for hybrid reconfigurable networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a topology file and a demand file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--degree", type=int, required=True)
    gen.add_argument("--seed", type=_natural, default=0)
    gen.add_argument("--capacity", type=float, default=1.0)
    gen.add_argument("--rate", type=float, default=10.0)
    gen.add_argument("--duration", type=float, default=1.0)
    gen.add_argument("--trace", type=str, default=None, help="demand CSV to copy instead of sampling")
    gen.add_argument("--out-topology", type=str, default="topology.txt")
    gen.add_argument("--out-demands", type=str, default="demands.csv")

    solve = sub.add_parser("solve", help="solve one instance from files")
    solve.add_argument("--topology", type=str, required=True)
    solve.add_argument("--demands", type=str, required=True)
    solve.add_argument("--routing", choices=[m.value for m in RoutingModel], required=True)
    solve.add_argument(
        "--algo", choices=["mc", "greedy", "mwm", "oblivious", "exact"], required=True
    )
    solve.add_argument("--path-limit", type=_parse_path_limit, default="none",
                       help="positive integer or 'none' for unrestricted")
    solve.add_argument("--trials", type=int, default=None)
    solve.add_argument("--seed", type=_natural, default=0)
    solve.add_argument("--default-reconf-capacity", type=float, default=1.0)
    solve.add_argument("--out-matching", type=str, default=None)
    solve.add_argument("--dump-lp", type=str, default=None)
    solve.add_argument("--json", action="store_true")

    exp = sub.add_parser("experiment", help="run a full plan from a JSON config")
    exp.add_argument("--plan", type=str, required=True)
    exp.add_argument("--out-dir", type=str, default=".")
    exp.add_argument("--seed", type=_natural, default=None, help="override the plan's base seed")
    exp.add_argument("--parallel", type=functools.partial(_natural, least=1), default=os.cpu_count() or 1)
    exp.add_argument("--jsonl", action="store_true")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_experiment(args)
    except (TraceParseError, TopologyParseError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ReconfNetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_generate(args) -> int:
    config = WorkloadConfig(
        n=args.nodes, k=args.degree, seed=args.seed, default_capacity=args.capacity,
        rate=args.rate, duration=args.duration, trace_path=args.trace,
    )
    net, demands = build_instance(config)
    digest = export_instance(net, demands, args.out_topology, args.out_demands)
    print(f"topology: {args.out_topology}")
    print(f"demands:  {args.out_demands}")
    print(f"instance hash: {digest}")
    return EXIT_OK


def _natural(raw: str, least: int = 0) -> int:
    """``raw`` as an integer of at least ``least``, or argparse's usage error."""
    if not raw.isdecimal() or int(raw) < least:
        raise argparse.ArgumentTypeError(f"expected an integer of at least {least}, got {raw!r}")
    return int(raw)


def _parse_path_limit(raw: str) -> int | None:
    return None if raw.lower() in ("none", "inf", "unlimited") else _natural(raw, least=1)


def _cmd_solve(args) -> int:
    net = read_topology(args.topology, default_reconf_capacity=args.default_reconf_capacity)
    demands, _summary = load_trace(args.demands, remap=False)
    routing = RoutingModel(args.routing)
    spec = EvalSpec(
        routing=routing,
        path_limit=args.path_limit,
        trials=args.trials,
        seed=args.seed,
    )

    lp_bound = None
    matching = Matching()
    if args.algo == "mc":
        if routing is RoutingModel.US:
            result = solve_us(net, demands, trials=args.trials, seed=args.seed)
        else:
            result = solve_ss(net, demands)
        matching, report, lp_bound = result.matching, result.report, result.lp_bound
        if not routing.segregated:
            # the rounded matching scored under the requested shortcut model
            report = eval_matching(net, demands, matching, spec)
    elif args.algo == "greedy":
        matching = greedy_matching(net, demands)
        report = eval_matching(net, demands, matching, spec)
    elif args.algo == "mwm":
        matching = max_weight_matching(net, demands)
        report = eval_matching(net, demands, matching, spec)
    elif args.algo == "oblivious":
        report = oblivious(net, demands, spec)
    else:
        matching, report = _solve_exact(net, demands, spec)

    if args.dump_lp:
        problem = build_mcrn_lp(net, demands)
        write_lp(problem, args.dump_lp)

    if args.out_matching:
        with open(args.out_matching, "w", encoding="utf-8") as fh:
            for i, j in matching.pairs:
                fh.write(f"{i} {j}\n")

    top = sorted(report.per_link_loads.items(), key=lambda kv: (-kv[1], arc_order(kv[0])))[:10]
    if args.json:
        payload = {
            "congestion": report.max_load,
            "lp_bound": lp_bound,
            "matching": [list(p) for p in matching.pairs],
            "top_loads": [
                {
                    "kind": arc.kind.value,
                    "tail": arc.tail,
                    "head": arc.head,
                    "copy": arc.copy,
                    "load": load,
                }
                for arc, load in top
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"congestion: {report.max_load:.9g}")
        if lp_bound is not None:
            print(f"lp bound:   {lp_bound:.9g}")
        print(f"matching:   {list(matching.pairs) or '(empty)'}")
        print("top loads:")
        for arc, load in top:
            print(f"  {arc!r}: {load:.9g}")
    return EXIT_OK


def _solve_exact(net, demands, spec: EvalSpec):
    """Route to a tractable exact solver, or the toy-scale oracle, or refuse."""
    structure = classify_demands(demands)
    if spec.routing is RoutingModel.SS and structure is not DemandStructure.MULTI:
        result = solve_single_source_ss(net, demands)
        return result.matching, result.report
    if (
        not spec.routing.segregated
        and structure is DemandStructure.SINGLE_COMMODITY
        and len(net.capacities()) == 1
        and net.c_max > 0
    ):
        return solve_single_commodity_uniform(net, demands)
    return brute_force_opt(net, demands, spec)


def _cmd_experiment(args) -> int:
    plan_path = Path(args.plan)
    with open(plan_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    plan = plan_from_json(payload)
    if args.seed is not None:
        plan = replace(plan, base_seed=args.seed, seeds=None)
    if plan.trace_path is not None and not Path(plan.trace_path).exists():
        raise FileNotFoundError(f"trace file not found: {plan.trace_path}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_plan(plan, workers=args.parallel)
    write_records(records, out_dir / "records.csv")
    write_records(summarize(records), out_dir / "summary.csv", SummaryRow)
    if args.jsonl:
        write_jsonl(records, out_dir / "records.jsonl")
    print(f"wrote {out_dir / 'records.csv'} ({len(records)} rows)")
    print(f"wrote {out_dir / 'summary.csv'}")
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
