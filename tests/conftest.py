"""Shared fixtures and seeded instance generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from reconfnet.lp import solve_lp
from reconfnet.model import DemandMatrix, HybridNetwork
from reconfnet.workloads import gen_k_regular

# Every run draws the same examples, so a tier-1 result is reproducible.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def path_net() -> HybridNetwork:
    """Three nodes in a path 0-1-2, every capacity 1."""
    return HybridNetwork.build(3, static=[(0, 1, 1, 1), (1, 2, 1, 1)], reconf_default=1.0)


def random_instance(seed: int, n_max: int = 12, uniform_caps: bool = False):
    """Seeded random instance: connected k-regular static topology (k in
    {3, 4}), per-direction capacities drawn from {1, 2, 3}, and a sparse
    demand matrix with values in {1, 2, 3}."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(4, n_max + 1))
        k = int(rng.choice([3, 4]))
        if k < n and (n * k) % 2 == 0:
            break
    base = gen_k_regular(n, k, seed=int(rng.integers(2**31)))
    if uniform_caps:
        net = base
    else:
        static = [
            (l.u, l.v, float(rng.integers(1, 4)), float(rng.integers(1, 4)))
            for l in base.static_links
        ]
        overrides = {
            (l.u, l.v): (float(rng.integers(1, 4)), float(rng.integers(1, 4)))
            for l in base.reconf_links
        }
        net = HybridNetwork.build(n, static, reconf_overrides=overrides)
    count = int(rng.integers(1, max(2, n)))
    entries = {}
    attempts = 0
    while len(entries) < count and attempts < 10 * count:
        attempts += 1
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j:
            entries[(i, j)] = float(rng.integers(1, 4))
    return net, DemandMatrix(entries)


def single_source_instance(seed: int, n_max: int = 8):
    rng = np.random.default_rng(seed)
    net, _ = random_instance(seed, n_max=n_max)
    n = net.n
    source = int(rng.integers(n))
    count = int(rng.integers(1, n - 1))
    entries = {}
    targets = rng.permutation([v for v in range(n) if v != source])[:count]
    for t in targets:
        entries[(source, int(t))] = float(rng.integers(1, 4))
    if rng.integers(2):  # exercise the symmetric single-destination case too
        entries = {(j, i): d for (i, j), d in entries.items()}
    return net, DemandMatrix(entries)


def single_commodity_uniform_instance(seed: int, n_max: int = 8):
    rng = np.random.default_rng(seed)
    net, _ = random_instance(seed, n_max=n_max, uniform_caps=True)
    n = net.n
    s = int(rng.integers(n))
    t = int(rng.integers(n - 1))
    if t >= s:
        t += 1
    return net, DemandMatrix({(s, t): float(rng.integers(1, 10))})


def assert_lp_file_round_trips(path, problem) -> None:
    """HiGHS's ``readModel`` reads an LP file that ``write_lp`` wrote for
    ``problem`` back with the same shape and column names, and re-solves it
    to the relaxation's objective on the LP's unit demand scale."""
    from scipy.optimize._highspy import _core

    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == _core.HighsStatus.kOk
    assert (highs.getNumRow(), highs.getNumCol()) == problem.lp.matrix.shape
    # HiGHS numbers the columns it reads in order of first appearance
    names = {highs.getColName(c)[1] for c in range(highs.getNumCol())}
    assert "lam" in names
    assert {n for n in names if n.startswith("z_")} == {f"z_{i}_{j}" for i, j in problem.z_pairs}
    highs.run()
    expected = solve_lp(problem).objective / problem.demand_scale
    assert highs.getInfo().objective_function_value == pytest.approx(expected, rel=0, abs=1e-9)
