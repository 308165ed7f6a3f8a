"""Command-line interface: exit codes, reproducibility, file outputs."""

from __future__ import annotations

import json

import pytest

from reconfnet.cli import EXIT_CAPABILITY, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from reconfnet.lp import build_mcrn_lp
from reconfnet.model import read_topology
from reconfnet.workloads import load_trace

from .conftest import assert_lp_file_round_trips


def _generate(tmp_path, capsys, extra=()):
    topo = tmp_path / "topology.txt"
    dem = tmp_path / "demands.csv"
    code = main(
        [
            "generate",
            "--nodes", "6",
            "--degree", "4",
            "--seed", "1",
            "--rate", "10",
            "--duration", "1",
            "--out-topology", str(topo),
            "--out-demands", str(dem),
            *extra,
        ]
    )
    out = capsys.readouterr().out
    return code, topo, dem, out


def test_generate_writes_files_and_hash(tmp_path, capsys) -> None:
    code, topo, dem, out = _generate(tmp_path, capsys)
    assert code == EXIT_OK
    assert topo.exists() and dem.exists()
    assert "instance hash:" in out
    net = read_topology(topo)
    assert net.n == 6
    assert len(net.static_links) == 12


def test_generate_deterministic_hash(tmp_path, capsys) -> None:
    _, _, _, out1 = _generate(tmp_path, capsys)
    _, _, _, out2 = _generate(tmp_path, capsys)
    hash1 = [l for l in out1.splitlines() if "hash" in l]
    hash2 = [l for l in out2.splitlines() if "hash" in l]
    assert hash1 == hash2


def test_generate_rejects_odd_degree_product(tmp_path, capsys) -> None:
    code = main(["generate", "--nodes", "5", "--degree", "3"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "regular" in err


def test_generate_missing_trace_is_io_error(tmp_path) -> None:
    code = main(
        ["generate", "--nodes", "6", "--degree", "4", "--trace", str(tmp_path / "no.csv")]
    )
    assert code == EXIT_IO


TRACE_ROWS = "10,20,1.5\n20,30,2\n30,40,1\n40,50,3\n50,60,1\n60,10,2\n"


@pytest.mark.parametrize(
    "args, trace, digest",
    [
        (["--degree", "4", "--seed", "1", "--capacity", "2"], None, "35ea57af284c1b7a"),
        (["--degree", "3", "--seed", "2"], TRACE_ROWS, "ee508546a76da3c1"),
    ],
    ids=["sampled", "trace"],
)
def test_generate_instance_hash_is_pinned(tmp_path, capsys, args, trace, digest) -> None:
    extra = []
    if trace is not None:
        (tmp_path / "trace.csv").write_text("i,j,demand\n" + trace)
        extra = ["--trace", str(tmp_path / "trace.csv")]
    topo, dem = tmp_path / "topology.txt", tmp_path / "demands.csv"
    code = main(
        ["generate", "--nodes", "6", *args, *extra,
         "--out-topology", str(topo), "--out-demands", str(dem)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == f"instance hash: {digest}"


def _refused_generate(tmp_path, capsys, extra) -> str:
    """Run ``generate`` on 6 nodes; it must exit 2 and write no file."""
    topo, dem = tmp_path / "topology.txt", tmp_path / "demands.csv"
    code = main(
        ["generate", "--nodes", "6", *extra, "--out-topology", str(topo), "--out-demands", str(dem)]
    )
    assert code == EXIT_USAGE
    assert not topo.exists() and not dem.exists()
    return capsys.readouterr().err


def test_generate_refuses_a_trace_with_more_nodes_than_the_topology(tmp_path, capsys) -> None:
    trace = tmp_path / "trace.csv"
    trace.write_text("i,j,demand\n" + TRACE_ROWS + "60,70,1\n")  # seven distinct ids
    err = _refused_generate(tmp_path, capsys, ["--degree", "3", "--trace", str(trace)])
    assert "outside the generated topology" in err


@pytest.mark.parametrize("capacity", ["-1", "0", "inf", "nan"])
def test_generate_refuses_a_capacity_that_solve_would_refuse(tmp_path, capsys, capacity) -> None:
    err = _refused_generate(tmp_path, capsys, ["--degree", "4", "--capacity", capacity])
    assert "capacity must be positive and finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "option, value",
    [("--rate", "nan"), ("--rate", "inf"), ("--duration", "inf"), ("--duration", "nan")],
)
def test_generate_refuses_a_rate_or_duration_that_is_not_finite(
    tmp_path, capsys, option, value
) -> None:
    err = _refused_generate(tmp_path, capsys, ["--degree", "3", option, value])
    assert f"{option[2:]} must be positive and finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "extra", [["--rate", "1e20"], ["--rate", "1e10", "--duration", "1e10"]], ids=["rate", "product"]
)
def test_generate_refuses_a_rate_times_duration_past_the_poisson_limit(
    tmp_path, capsys, extra
) -> None:
    err = _refused_generate(tmp_path, capsys, ["--degree", "3", *extra])
    assert "rate * duration must be at most" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["generate", "--nodes", "6", "--degree", "3", "--seed", "-5"], "--seed"),
        (["solve", "--routing", "us", "--algo", "mc", "--seed", "-5"], "--seed"),
        (["solve", "--routing", "us", "--algo", "mc", "--path-limit", "x"], "--path-limit"),
        (["solve", "--routing", "ss", "--algo", "oblivious", "--path-limit", "0"], "--path-limit"),
        (["experiment", "--plan", "plan.json", "--seed", "1.5"], "--seed"),
    ],
    ids=["generate-seed", "solve-seed", "path-limit-text", "path-limit-zero", "experiment-seed"],
)
def test_a_bad_integer_option_is_refused_by_name(capsys, argv, option) -> None:
    if argv[0] == "solve":
        argv = [*argv, "--topology", "topology.txt", "--demands", "demands.csv"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--parallel", "0"], ["--parallel=-3"]], ids=["zero", "negative"])
def test_experiment_refuses_fewer_than_one_worker_by_name(capsys, argv) -> None:
    assert main(["experiment", "--plan", "plan.json", *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --parallel: expected an integer of at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algo, trials", [("mc", "0"), ("oblivious", "-1")], ids=["mc", "oblivious"])
def test_solve_refuses_fewer_than_one_trial(tmp_path, capsys, algo, trials) -> None:
    code, topo, dem, _ = _generate(tmp_path, capsys)
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "us",
            "--algo", algo,
            "--trials", trials,
        ]
    )
    assert code == EXIT_USAGE
    assert "trials must be at least 1" in capsys.readouterr().err


def test_solve_refuses_demands_whose_sum_overflows(tmp_path, capsys) -> None:
    code, topo, dem, _ = _generate(tmp_path, capsys)
    dem.write_text("i,j,demand\n0,1,1e308\n1,2,1e308\n2,3,1e308\n")
    code = main(
        ["solve", "--topology", str(topo), "--demands", str(dem), "--routing", "ss", "--algo", "mc"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "sum past the largest float" in err and "Traceback" not in err


def test_solve_mc_reports_bound_and_matching(tmp_path, capsys) -> None:
    code, topo, dem, _ = _generate(tmp_path, capsys)
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "ss",
            "--algo", "mc",
            "--out-matching", str(tmp_path / "matching.txt"),
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "congestion:" in out
    assert "lp bound:" in out
    assert (tmp_path / "matching.txt").exists()


def test_solve_oblivious_json(tmp_path, capsys) -> None:
    code, topo, dem, _ = _generate(tmp_path, capsys)
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "ss",
            "--algo", "oblivious",
            "--path-limit", "3",
            "--json",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["matching"] == []
    assert payload["congestion"] >= 0
    assert len(payload["top_loads"]) <= 10


def test_solve_exact_refuses_large_nonsegregated(tmp_path, capsys) -> None:
    topo = tmp_path / "topology.txt"
    dem = tmp_path / "demands.csv"
    code = main(
        [
            "generate",
            "--nodes", "50", "--degree", "4", "--seed", "3",
            "--out-topology", str(topo), "--out-demands", str(dem),
        ]
    )
    assert code == EXIT_OK
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "un",
            "--algo", "exact",
        ]
    )
    assert code == EXIT_CAPABILITY
    assert "NP-hard" in capsys.readouterr().err


def test_solve_exact_single_source_tractable(tmp_path, capsys) -> None:
    code, topo, dem, _ = _generate(tmp_path, capsys)
    dem.write_text("i,j,demand\n0,1,2\n0,2,1\n0,3,4\n")
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "ss",
            "--algo", "exact",
        ]
    )
    assert code == EXIT_OK
    assert "congestion:" in capsys.readouterr().out


def _solve_dump_lp(tmp_path, capsys, dump):
    """``solve --dump-lp dump`` on a generated instance: the exit code, and
    the relaxation built from the same files."""
    code, topo, dem, _ = _generate(tmp_path, capsys)
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "ss",
            "--algo", "mc",
            "--dump-lp", str(dump),
        ]
    )
    demands, _ = load_trace(dem, remap=False)
    return code, build_mcrn_lp(read_topology(topo), demands)


def test_solve_dump_lp_writes_file(tmp_path, capsys) -> None:
    dump = tmp_path / "problem.lp"
    code, problem = _solve_dump_lp(tmp_path, capsys, dump)
    assert code == EXIT_OK
    assert_lp_file_round_trips(dump, problem)


def test_solve_dump_lp_is_an_lp_file_whatever_its_extension(tmp_path, capsys) -> None:
    dump = tmp_path / "problem.txt"
    code, problem = _solve_dump_lp(tmp_path, capsys, dump)
    assert code == EXIT_OK
    copy = tmp_path / "copy.lp"  # HiGHS reads by extension
    copy.write_bytes(dump.read_bytes())
    assert_lp_file_round_trips(copy, problem)


@pytest.mark.parametrize("where", ["missing/problem.lp", "."], ids=["no-directory", "a-directory"])
def test_solve_dump_lp_to_an_unwritable_path_is_io_error(tmp_path, capsys, where) -> None:
    code, _ = _solve_dump_lp(tmp_path, capsys, tmp_path / where)
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("error:")


def _write_plan(tmp_path, **overrides):
    payload = {
        "node_counts": [8],
        "k_values": [3],
        "algorithms": ["mc_ss", "greedy", "mwm", "oblivious", "lp"],
        "eval": {"routing": "ss", "path_limit": 3},
        "repetitions": 2,
        "base_seed": 5,
        "rate": 6.0,
        "duration": 1.0,
    }
    payload.update(overrides)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(payload))
    return plan


def test_experiment_produces_expected_row_count(tmp_path, capsys) -> None:
    plan = _write_plan(tmp_path, node_counts=[8, 10], repetitions=2)
    out_dir = tmp_path / "out"
    code = main(["experiment", "--plan", str(plan), "--out-dir", str(out_dir), "--parallel", "1"])
    assert code == EXIT_OK
    lines = (out_dir / "records.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 5
    assert (out_dir / "summary.csv").exists()


def test_experiment_rerun_identical_modulo_timing(tmp_path, capsys) -> None:
    plan = _write_plan(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--plan", str(plan), "--out-dir", str(out1), "--parallel", "1"]) == EXIT_OK
    assert main(["experiment", "--plan", str(plan), "--out-dir", str(out2), "--parallel", "1"]) == EXIT_OK

    def strip_timing(path):
        rows = []
        for line in (path / "records.csv").read_text().strip().splitlines():
            cols = line.split(",")
            del cols[7]  # wall_time_ms
            rows.append(",".join(cols))
        return rows

    assert strip_timing(out1) == strip_timing(out2)


def test_experiment_missing_trace_is_io_error(tmp_path, capsys) -> None:
    plan = _write_plan(tmp_path, trace_path=str(tmp_path / "missing.csv"))
    code = main(["experiment", "--plan", str(plan), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_IO


def test_experiment_jsonl_stream(tmp_path, capsys) -> None:
    plan = _write_plan(tmp_path, repetitions=1)
    out_dir = tmp_path / "out"
    code = main(
        ["experiment", "--plan", str(plan), "--out-dir", str(out_dir), "--jsonl", "--parallel", "1"]
    )
    assert code == EXIT_OK
    lines = (out_dir / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 5
    record = json.loads(lines[0])
    assert {"algorithm", "congestion", "instance_hash"} <= set(record)


def test_usage_error_exit_code() -> None:
    assert main(["solve", "--algo", "mc"]) == EXIT_USAGE


def test_generated_demands_align_with_topology(tmp_path, capsys) -> None:
    _, topo, dem, _ = _generate(tmp_path, capsys)
    demands, _ = load_trace(dem, remap=False)
    net = read_topology(topo)
    for i, j in demands.commodities():
        assert 0 <= i < net.n and 0 <= j < net.n


def test_experiment_seed_flag_overrides_plan(tmp_path, capsys) -> None:
    plan = _write_plan(tmp_path, repetitions=1)
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    assert main(["experiment", "--plan", str(plan), "--out-dir", str(out1), "--seed", "9", "--parallel", "1"]) == EXIT_OK
    assert main(["experiment", "--plan", str(plan), "--out-dir", str(out2), "--seed", "9", "--parallel", "1"]) == EXIT_OK
    assert main(["experiment", "--plan", str(plan), "--out-dir", str(out3), "--seed", "10", "--parallel", "1"]) == EXIT_OK

    def rows(path):
        return (path / "records.csv").read_text().splitlines()

    def strip_timing(lines):
        out = []
        for line in lines:
            cols = line.split(",")
            del cols[7]
            out.append(",".join(cols))
        return out

    assert strip_timing(rows(out1)) == strip_timing(rows(out2))
    assert strip_timing(rows(out1)) != strip_timing(rows(out3))


def test_solve_mc_nonsegregated_scores_under_requested_model(tmp_path, capsys) -> None:
    code, topo, dem, _ = _generate(tmp_path, capsys)
    for routing in ("sn", "un"):
        code = main(
            [
                "solve",
                "--topology", str(topo),
                "--demands", str(dem),
                "--routing", routing,
                "--algo", "mc",
                "--path-limit", "3" if routing == "sn" else "1",
                "--json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["congestion"] >= 0


@pytest.mark.parametrize(
    "rows, message",
    [("0,9,1\n", "outside"), ("0,1,nan\n", "non-finite"), ("0,1,inf\n", "non-finite")],
    ids=["endpoint", "nan", "inf"],
)
def test_solve_rejects_bad_demand_with_usage_exit(tmp_path, capsys, rows, message) -> None:
    code, topo, dem, _ = _generate(tmp_path, capsys)
    dem.write_text("i,j,demand\n" + rows)
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "sn",
            "--algo", "greedy",
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_solve_rejects_bad_link_records_with_usage_exit(tmp_path, capsys) -> None:
    topo = tmp_path / "topology.txt"
    topo.write_text("# nodes=4\nS 0 1 inf 1\nS 1 2 1 1\nS 2 3 1 1\nR -1 2 5 5\n")
    dem = tmp_path / "demands.csv"
    dem.write_text("i,j,demand\n0,3,1\n")
    code = main(
        ["solve", "--topology", str(topo), "--demands", str(dem), "--routing", "ss", "--algo", "mc"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line.startswith("error:")
    assert "NonFiniteCapacity" in line and "NodeOutOfRange" in line


def test_solve_refuses_an_invalid_topology_before_reading_the_demands(tmp_path, capsys) -> None:
    topo = tmp_path / "topology.txt"
    topo.write_text("S 0 1 1 1\nS 1 1 1 1\n")
    missing = tmp_path / "missing.csv"
    code = main(
        ["solve", "--topology", str(topo), "--demands", str(missing), "--routing", "ss", "--algo", "mc"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "SelfLoop" in err and "Traceback" not in err


@pytest.mark.parametrize("present", [{}, {"k_values": [3]}, {"node_counts": [8]}])
def test_experiment_plan_without_required_key_is_usage_error(tmp_path, capsys, present) -> None:
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(present))
    code = main(["experiment", "--plan", str(plan), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for key in ("node_counts", "k_values"):
        assert (key in err) == (key not in present)


PLAN = {"node_counts": [8], "k_values": [3], "algorithms": ["greedy"], "rate": 6.0}


@pytest.mark.parametrize(
    "payload, seed, named",
    [
        ({"node_counts": 8, "k_values": [3]}, [], "node_counts"),
        ([], ["--seed", "3"], "JSON object"),
        ({**PLAN, "repetition": 1}, [], "'repetition'"),
        ({**PLAN, "eval": {"routnig": "us"}}, [], "'eval.routnig'"),
        ({**PLAN, "rate": "6"}, [], "'rate'"),
        ({**PLAN, "eval": "ss"}, [], "'eval'"),
        ({**PLAN, "algorithms": "greedy"}, [], "'algorithms'"),
        ({**PLAN, "eval": {"routing": "xx"}}, [], "'eval.routing'"),
        ({**PLAN, "repetitions": True}, [], "'repetitions'"),
        ({**PLAN, "size_distribution": [[1.0]]}, [], "'size_distribution'"),
        ({**PLAN, "node_counts": []}, [], "no records to summarize"),
        ({**PLAN, "eval": {"routing": "us", "seed": 5}}, [], "'eval.seed'"),
        ({**PLAN, "us_trials": 2}, [], "'us_trials'"),
    ],
)
def test_experiment_plan_with_wrong_types_is_usage_error(
    tmp_path, capsys, payload, seed, named
) -> None:
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(payload))
    code = main(["experiment", "--plan", str(plan), "--out-dir", str(tmp_path / "o"), *seed])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert named in err


def test_solve_path_search_budget_is_capability_refusal(tmp_path, capsys, monkeypatch) -> None:
    from reconfnet import paths

    monkeypatch.setattr(paths, "_MAX_HEAP_POPS", 5)
    _, topo, dem, _ = _generate(tmp_path, capsys)
    code = main(
        [
            "solve",
            "--topology", str(topo),
            "--demands", str(dem),
            "--routing", "ss",
            "--algo", "greedy",
            "--path-limit", "100000",
        ]
    )
    assert code == EXIT_CAPABILITY
    err = capsys.readouterr().err
    assert "Traceback" not in err and "budget" in err
