"""Pinned outputs of the unsplittable routings and the exhaustive optimizer.

Each digest covers, for one seeded instance, every path (arcs and amount as
float hex) and every load of ``solve_us``, ``route_matching`` under ``us`` and
``un`` and ``brute_force_opt`` under ``us`` and ``un``.  A refactor of how
routings are scored must leave them as they are; a change that is meant to
alter them updates the digests and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from reconfnet.evaluation import EvalSpec, RoutingModel, brute_force_opt, route_matching
from reconfnet.model import DemandMatrix
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
