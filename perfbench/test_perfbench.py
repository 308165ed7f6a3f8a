"""Tests of the benchmark itself, on a tiny pool of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(cases.WORKLOADS)


def tiny_bench(tmp_path, workload, trace, seed=3):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    result, _context, _tracer = run.bench(args, 0.5, tmp_path, tiny=True)
    return result


def test_benchmark_file_lists_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(cases.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == dict(run.PER_LAYER)


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path, workload):
    result = tiny_bench(tmp_path, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END_UNITS
    for name, metric in metrics.items():
        assert isinstance(metric["value"], float) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_two_traced_runs_give_identical_counts(tmp_path, workload):
    first = tiny_bench(tmp_path, workload, trace=1)["metrics"]
    second = tiny_bench(tmp_path, workload, trace=1)["metrics"]
    assert {name: m["unit"] for name, m in first.items()} == dict(run.PER_LAYER)
    counts = [name for name, unit in run.PER_LAYER if unit == "count"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    if workload == "baselines_large":
        assert first["lp.solve_simplex.calls"]["value"] == 0
    else:
        assert first["lp.solve_simplex.calls"]["value"] > 0


def _corrupt(workload, result):
    if workload in ("plan_sparse", "baselines_large"):
        first = result[0]
        return [dataclasses.replace(first, congestion=first.congestion * 3)] + result[1:]
    if workload == "dense_trace":
        result.us = dataclasses.replace(result.us, max_load=result.us.max_load * 3)
        return result
    result.single_source += 1.0
    return result


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_result_is_counted_as_failed(tmp_path, workload, monkeypatch):
    original = cases.WORKLOADS[workload]
    corrupting = dataclasses.replace(
        original, solve=lambda case, workdir: _corrupt(workload, original.solve(case, workdir))
    )
    monkeypatch.setitem(cases.WORKLOADS, workload, corrupting)
    result = tiny_bench(tmp_path, workload, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_raising_instance_is_counted_as_failed(tmp_path, monkeypatch):
    def boom(case, workdir):
        raise RuntimeError("solver blew up")

    original = cases.WORKLOADS["toy_oracle"]
    monkeypatch.setitem(cases.WORKLOADS, "toy_oracle", dataclasses.replace(original, solve=boom))
    result = tiny_bench(tmp_path, "toy_oracle", trace=0)
    assert result["failed"] == result["attempted"] > 0 and not result["correct"]


def test_same_seed_same_pool_other_seed_other_pool():
    for workload in cases.WORKLOADS.values():
        assert workload.pool(5) == workload.pool(5)
    assert cases.dense_trace_pool(5) != cases.dense_trace_pool(6)
    assert cases.toy_oracle_pool(5) != cases.toy_oracle_pool(6)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy_oracle", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
