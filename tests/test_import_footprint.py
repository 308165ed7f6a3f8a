"""Heavy dependencies load only when a call needs them.

scipy.optimize (the LP solver) and networkx (the exact maximum-weight
matching) each add more than 10 MiB to a process.  Callers that never solve
an LP, or never ask for the networkx baseline, should not pay for them.
multiprocessing, which only a parallel experiment run needs, costs tens of
milliseconds of import time and stays out of both kinds of call.
Each check runs in a fresh interpreter, since this test process has long
since imported them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, os, sys, tempfile
from reconfnet import DemandMatrix, EvalSpec, RoutingModel, gen_k_regular
from reconfnet import eval_matching, greedy_matching, oblivious, solve_ss
from reconfnet.cli import main

WATCHED = ("scipy.optimize", "networkx", "multiprocessing")
with tempfile.TemporaryDirectory() as out:
    files = [os.path.join(out, name) for name in ("topology.txt", "demands.csv")]
    argv = ["--nodes", "8", "--degree", "3", "--out-topology", files[0], "--out-demands", files[1]]
    assert main(["generate", *argv]) == 0
after_generate = sorted(m for m in WATCHED if m in sys.modules)
net = gen_k_regular(8, 3, seed=1)
demands = DemandMatrix({(0, 5): 2.0, (1, 6): 1.0, (2, 7): 3.0, (5, 0): 1.0})
spec = EvalSpec(RoutingModel.UN, path_limit=1)
oblivious(net, demands, spec)
eval_matching(net, demands, greedy_matching(net, demands), spec)
after_baselines = sorted(m for m in WATCHED if m in sys.modules)
solve_ss(net, demands)
after_solve_ss = sorted(m for m in WATCHED if m in sys.modules)
print(json.dumps([after_generate, after_baselines, after_solve_ss]))
"""


def test_lp_free_calls_load_neither_scipy_optimize_nor_networkx() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    after_generate, after_baselines, after_solve_ss = json.loads(
        done.stdout.strip().splitlines()[-1]
    )
    assert after_generate == []  # the CLI imports write_lp, but not the binding it calls
    assert after_baselines == []
    assert after_solve_ss == ["scipy.optimize"]  # the LP solve loads it, the others stay out
