"""Experiment harness: fairness, ordering invariants, reproducibility."""

from __future__ import annotations

import math
import time

import pytest

from reconfnet import harness
from reconfnet.errors import EmptyRecordSetError
from reconfnet.evaluation import EvalSpec, RoutingModel
from reconfnet.model import DemandMatrix, HybridNetwork
from reconfnet.workloads import WorkloadConfig, build_instance, gen_k_regular, gen_pfabric_demands
from reconfnet.harness import (
    ExperimentPlan,
    RunRecord,
    instance_hash,
    run_plan,
    summarize,
    write_records,
)


def _toy_plan(**overrides) -> ExperimentPlan:
    defaults = dict(
        node_counts=(8,),
        k_values=(3,),
        algorithms=("mc_ss", "greedy", "mwm", "oblivious", "lp"),
        eval=EvalSpec(routing=RoutingModel.SS, path_limit=3),
        repetitions=2,
        base_seed=11,
        rate=6.0,
        duration=1.0,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def test_run_plan_row_counting() -> None:
    plan = _toy_plan(node_counts=(8, 10), repetitions=2)
    records = run_plan(plan)
    assert len(records) == 2 * 2 * len(plan.algorithms)
    seeds = {r.seed for r in records}
    assert seeds == {11, 12}


def test_same_instance_hash_across_algorithms() -> None:
    records = run_plan(_toy_plan())
    by_key: dict = {}
    for record in records:
        by_key.setdefault((record.n, record.k, record.seed), set()).add(record.instance_hash)
    for hashes in by_key.values():
        assert len(hashes) == 1


def test_ordering_invariants_per_instance() -> None:
    records = run_plan(_toy_plan(repetitions=3))
    groups: dict = {}
    for record in records:
        groups.setdefault((record.n, record.k, record.seed), {})[record.algorithm] = record
    for group in groups.values():
        lp = group["lp"].congestion
        mc = group["mc_ss"].congestion
        obl = group["oblivious"].congestion
        assert lp <= mc + 1e-6
        assert mc <= 2 * lp + 1e-6
        assert obl >= lp - 1e-9
        assert group["oblivious"].congestion_normalized == pytest.approx(1.0)


def test_rerun_reproduces_records_except_timing() -> None:
    plan = _toy_plan()
    first = run_plan(plan)
    second = run_plan(plan)
    strip = lambda r: (
        r.algorithm,
        r.n,
        r.k,
        r.routing,
        r.seed,
        f"{r.congestion:.12g}",
        f"{r.congestion_normalized:.12g}",
        r.matching_size,
        r.instance_hash,
        r.error,
    )
    assert [strip(r) for r in first] == [strip(r) for r in second]


def test_zero_demand_plan_yields_zero_rows() -> None:
    plan = _toy_plan(rate=1e-12, duration=1e-12, repetitions=1)
    records = run_plan(plan)
    for record in records:
        assert record.error == ""
        assert record.congestion == pytest.approx(0.0)


def test_mc_us_records_unsplittable_result() -> None:
    plan = _toy_plan(
        algorithms=("mc_us", "lp", "oblivious"),
        eval=EvalSpec(routing=RoutingModel.US, path_limit=1),
        repetitions=1,
    )
    records = run_plan(plan)
    mc = next(r for r in records if r.algorithm == "mc_us")
    assert mc.error == ""
    assert math.isfinite(mc.congestion)


def test_oblivious_record_times_its_routing(monkeypatch) -> None:
    route = harness.oblivious

    def slow_oblivious(*args):
        time.sleep(0.05)
        return route(*args)

    monkeypatch.setattr(harness, "oblivious", slow_oblivious)
    records = run_plan(_toy_plan(algorithms=("greedy", "oblivious"), repetitions=1))
    record = next(r for r in records if r.algorithm == "oblivious")
    assert record.error == ""
    assert record.wall_time_ms >= 50.0


def test_summarize_closed_forms() -> None:
    base = dict(
        algorithm="greedy", n=8, k=3, routing="ss", matching_size=1,
        instance_hash="x", wall_time_ms=1.0,
    )
    records = [
        RunRecord(seed=1, congestion=1.0, congestion_normalized=0.5, **base),
        RunRecord(seed=2, congestion=3.0, congestion_normalized=0.7, **base),
    ]
    rows = summarize(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.congestion_mean == pytest.approx(2.0)
    assert row.congestion_sd == pytest.approx(math.sqrt(2.0))
    assert row.normalized_mean == pytest.approx(0.6)
    assert math.isnan(row.ratio_to_lp)  # no LP rows present


def test_summarize_identical_rows_zero_sd() -> None:
    base = dict(
        algorithm="lp", n=8, k=3, routing="ss", matching_size=0,
        instance_hash="x", wall_time_ms=1.0,
    )
    records = [
        RunRecord(seed=s, congestion=2.0, congestion_normalized=1.0, **base) for s in range(5)
    ]
    rows = summarize(records)
    assert rows[0].congestion_sd == 0.0
    assert rows[0].ratio_to_lp == pytest.approx(1.0)


def test_summarize_empty_raises() -> None:
    with pytest.raises(EmptyRecordSetError):
        summarize([])


def test_records_csv_schema(tmp_path) -> None:
    records = run_plan(_toy_plan(repetitions=1))
    out = tmp_path / "records.csv"
    write_records(records, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "algorithm,n,k,routing,seed,congestion,congestion_normalized,"
        "wall_time_ms,matching_size,instance_hash,error"
    )
    assert len(lines) == 1 + len(records)


def test_parallel_workers_match_sequential() -> None:
    plan = _toy_plan(repetitions=2)
    sequential = run_plan(plan, workers=1)
    parallel = run_plan(plan, workers=2)
    strip = lambda r: (r.algorithm, r.n, r.k, r.seed, f"{r.congestion:.12g}")
    assert [strip(r) for r in sequential] == [strip(r) for r in parallel]


def test_instance_hash_is_pinned() -> None:
    """The digest covers the serialised records; these values must not drift."""
    assert (
        instance_hash(gen_k_regular(8, 3, seed=1), gen_pfabric_demands(8, 10, 1.0, seed=2))
        == "95ef01cf20152f01"
    )
    net = HybridNetwork.build(
        4,
        [(0, 1, 2.0, 3.0), (1, 2, 1.0, 1.0), (2, 3, 1.5, 0.5)],
        reconf_default=2.0,
        reconf_overrides={(0, 2): (5.0, 6.0), (1, 3): (0.0, 4.0)},
    )
    assert instance_hash(net, DemandMatrix({(0, 3): 2.0, (3, 1): 1.0})) == "e783cdab2f72289a"
    assert (
        instance_hash(*build_instance(WorkloadConfig(n=200, k=4, seed=3, rate=100)))
        == "7879d2bebe8de053"
    )
