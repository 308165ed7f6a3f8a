"""Pinned outputs of ``reconfnet experiment``.

Each plan below goes through the CLI, from the plan file to ``records.csv``,
``summary.csv`` and ``records.jsonl``.  The digest covers the three files
byte for byte, except ``wall_time_ms``, which is masked.  The plans cover
every routing model, both ``mc_scoring`` modes, explicit seeds, the
optional plan keys and zero demand.  A refactor of the harness must leave
the digests as they are; a change meant to alter an output updates the pin
and says why.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from reconfnet.cli import EXIT_OK, main
from reconfnet.harness import write_records

ALL = ["mc_ss", "mc_us", "greedy", "mwm", "oblivious", "lp"]
BASE = {"node_counts": [8], "k_values": [3], "repetitions": 2, "base_seed": 11, "rate": 6.0}

PLANS = {
    "ss_solver": {**BASE, "algorithms": ALL, "eval": {"routing": "ss", "path_limit": 3}},
    "ss_eval": {**BASE, "algorithms": ALL, "mc_scoring": "eval"},
    "us": {
        **BASE,
        "node_counts": [8, 10],
        "algorithms": ALL,
        "eval": {"routing": "us", "trials": 2},
        "size_distribution": [[1.0, 0.5], [4.0, 0.5]],
    },
    "un": {**BASE, "algorithms": ["greedy", "mwm", "oblivious", "lp"], "eval": {"routing": "un"}},
    "sn_seeds": {
        **BASE,
        "k_values": [3, 4],
        "seeds": [3, 7],
        "algorithms": ["mc_ss", "greedy", "oblivious", "lp"],
        "eval": {"routing": "sn", "path_limit": 2},
        "default_capacity": 2.0,
        "duration": 2.0,
    },
    "zero_demand": {**BASE, "repetitions": 1, "rate": 1e-12, "duration": 1e-12, "algorithms": ALL},
}

PINNED = {
    "ss_solver": "f005b9fa04a01e14",
    "ss_eval": "b9766931a9433d39",
    "us": "42c0779deaa4fe59",
    "un": "d87c49b608425177",
    "sn_seeds": "78abd7a2a3e59d69",
    "zero_demand": "7531e7ff64cad901",
}

WALL_TIME_COLUMN = 7  # no column before it can hold a comma


def _masked_csv(text: str) -> str:
    lines = text.splitlines(keepends=True)
    masked = lines[:1]
    for line in lines[1:]:
        fields = line.split(",", WALL_TIME_COLUMN + 1)
        fields[WALL_TIME_COLUMN] = "*"
        masked.append(",".join(fields))
    return "".join(masked)


def _masked_jsonl(text: str) -> str:
    return re.sub(r'"wall_time_ms": [^,}]+', '"wall_time_ms": *', text)


def _digest(tmp_path, plan: dict) -> str:
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan_file), "--out-dir", str(out), "--jsonl"]) == EXIT_OK
    records = (out / "records.csv").read_bytes().decode()
    assert records.splitlines()[0].split(",")[WALL_TIME_COLUMN] == "wall_time_ms"
    blob = "\0".join(
        (
            _masked_csv(records),
            (out / "summary.csv").read_bytes().decode(),
            _masked_jsonl((out / "records.jsonl").read_bytes().decode()),
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PLANS))
def test_experiment_outputs_are_pinned(tmp_path, name) -> None:
    assert _digest(tmp_path, PLANS[name]) == PINNED[name]


def test_empty_records_write_only_the_header(tmp_path) -> None:
    out = tmp_path / "records.csv"
    write_records([], out)
    assert out.read_bytes().decode() == (
        "algorithm,n,k,routing,seed,congestion,congestion_normalized,"
        "wall_time_ms,matching_size,instance_hash,error\r\n"
    )
