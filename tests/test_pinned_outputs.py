"""Pinned outputs of the unsplittable routings, the exhaustive optimizer and
the baseline plans.

Each digest covers, for one seeded instance, every path (arcs and amount as
float hex) and every load of ``solve_us``, ``route_matching`` under ``us`` and
``un`` and ``brute_force_opt`` under ``us`` and ``un``.  The one-path
routings and the ``run_plan`` records of the baselines are pinned the same
way.  A refactor of how routings are scored or how paths are searched must
leave them as they are; a change that is meant to alter them updates the
pins and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from reconfnet.baselines import greedy_matching
from reconfnet.evaluation import EvalSpec, RoutingModel, brute_force_opt, route_matching
from reconfnet.harness import ExperimentPlan, run_plan
from reconfnet.model import DemandMatrix, Matching
from reconfnet.segregated import solve_ss, solve_us

from .conftest import random_instance


def _arc(arc) -> str:
    return f"{arc.kind.value}{arc.copy}:{arc.tail}>{arc.head}"


def _flow_lines(flow) -> list[str]:
    if flow is None:
        return ["no routing"]
    return [
        f"{commodity} {' '.join(_arc(a) for a in arcs)} {amount.hex()}"
        for commodity, arcs, amount in flow.paths
    ]


def _report_lines(matching, report) -> list[str]:
    loads = " ".join(f"{_arc(a)}={load.hex()}" for a, load in report.per_link_loads.items())
    return [f"{matching.pairs} {report.max_load.hex()} {loads}"]


def _outputs(seed: int) -> list[str]:
    net, demands = random_instance(seed, n_max=6)
    stage1 = solve_ss(net, demands)
    lines = []
    for trials in (None, 3):
        result = solve_us(net, demands, trials=trials, seed=seed, stage1=stage1)
        lines += _flow_lines(result.flow) + _report_lines(result.matching, result.report)
    for routing in (RoutingModel.US, RoutingModel.UN):
        for path_limit in (None, 1, 3):
            spec = EvalSpec(routing, path_limit=path_limit, seed=seed)
            lines += _flow_lines(route_matching(net, demands, stage1.matching, spec))
    # two commodities keep every matching's path-assignment space small
    pair = DemandMatrix(dict(list(demands.entries.items())[:2]))
    for routing in (RoutingModel.US, RoutingModel.UN):
        lines += _report_lines(*brute_force_opt(net, pair, EvalSpec(routing)))
    return lines


PINNED = {
    0: "5c3c5588fabc91c0",
    1: "0b6403b4f2b951a2",
    2: "444060c39beb1176",
    3: "6ca6840b589840d8",
    4: "7b432118ce62dabc",
    5: "14e0627e59297325",
    6: "652c6684f0979db8",
    7: "b53c45310e8f9ddb",
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_unsplittable_outputs_are_pinned(seed) -> None:
    digest = hashlib.sha256("\n".join(_outputs(seed)).encode()).hexdigest()[:16]
    assert digest == PINNED[seed]


def _shortest_path_lines(seed: int) -> list[str]:
    net, demands = random_instance(seed)
    lines = []
    for matching in (Matching(), greedy_matching(net, demands)):
        for routing in (RoutingModel.UN, RoutingModel.US):
            spec = EvalSpec(routing, path_limit=1)
            lines += _flow_lines(route_matching(net, demands, matching, spec))
    return lines


SHORTEST_PATHS_PINNED = {
    0: "f57d3e157b3396bf",
    1: "be2bbb8b04cd4ff9",
    2: "9a48fa5f511db103",
    3: "08b8f2d1173235fc",
    4: "60632d453219d98f",
    5: "40145d45b0816404",
    6: "ae1341e642bdddf7",
    7: "c2e2708408c70877",
}


@pytest.mark.parametrize("seed", sorted(SHORTEST_PATHS_PINNED))
def test_shortest_path_routings_are_pinned(seed) -> None:
    """Every path of the one-path routings, with and without a matching."""
    digest = hashlib.sha256("\n".join(_shortest_path_lines(seed)).encode()).hexdigest()[:16]
    assert digest == SHORTEST_PATHS_PINNED[seed]


def _plan_records(n: int, rate: float, routing: str, path_limit: int, seeds) -> list[tuple]:
    plan = ExperimentPlan(
        node_counts=(n,),
        k_values=(4,),
        algorithms=("greedy", "mwm", "oblivious"),
        eval=EvalSpec(RoutingModel(routing), path_limit=path_limit),
        seeds=seeds,
        rate=rate,
    )
    return [
        (r.seed, r.algorithm, r.congestion.hex(), r.matching_size, r.instance_hash)
        for r in run_plan(plan)
    ]


def test_baseline_plan_records_are_pinned() -> None:
    """The shape of the large baseline benchmark, shrunk to n=40."""
    assert _plan_records(40, 40.0, "un", 1, (0, 1, 2, 3)) == [
        (0, "greedy", "0x1.f440000000000p+10", 13, "5ea6085e606c79fe"),
        (0, "mwm", "0x1.f480000000000p+9", 15, "5ea6085e606c79fe"),
        (0, "oblivious", "0x1.1340000000000p+10", 0, "5ea6085e606c79fe"),
        (1, "greedy", "0x1.f400000000000p+9", 12, "c2e01944320c54d0"),
        (1, "mwm", "0x1.f400000000000p+9", 12, "c2e01944320c54d0"),
        (1, "oblivious", "0x1.f400000000000p+9", 0, "c2e01944320c54d0"),
        (2, "greedy", "0x1.f400000000000p+9", 13, "5adcfbf7a8633307"),
        (2, "mwm", "0x1.f480000000000p+9", 13, "5adcfbf7a8633307"),
        (2, "oblivious", "0x1.f400000000000p+10", 0, "5adcfbf7a8633307"),
        (3, "greedy", "0x1.f440000000000p+10", 15, "6c3028b69fd05d3f"),
        (3, "mwm", "0x1.f440000000000p+10", 15, "6c3028b69fd05d3f"),
        (3, "oblivious", "0x1.1300000000000p+10", 0, "6c3028b69fd05d3f"),
    ]


def test_restricted_path_plan_records_are_pinned() -> None:
    """Baselines scored on their three shortest paths under ``ss``."""
    assert _plan_records(32, 24.0, "ss", 3, (0, 1)) == [
        (0, "greedy", "0x1.f400000000000p+9", 9, "85b64d3588228c82"),
        (0, "mwm", "0x1.f400000000000p+9", 9, "85b64d3588228c82"),
        (0, "oblivious", "0x1.f440000000001p+8", 0, "85b64d3588228c82"),
        (1, "greedy", "0x1.9000000000000p+6", 8, "0cdb935a6dcc590c"),
        (1, "mwm", "0x1.9000000000000p+6", 8, "0cdb935a6dcc590c"),
        (1, "oblivious", "0x1.b800000000001p+5", 0, "0cdb935a6dcc590c"),
    ]
