"""Topology sampling, synthetic demand generation, trace ingestion."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from reconfnet.errors import InvalidDegreeError, TraceParseError
from reconfnet.workloads import (
    SizeDistribution,
    convert_dense_matrix,
    gen_k_regular,
    gen_pfabric_demands,
    load_trace,
    sample_flow_events,
    write_demands,
)


def test_k_regular_degree_and_link_count() -> None:
    net = gen_k_regular(6, 4, seed=0)
    assert len(net.static_links) == 12  # n*k/2
    degree = {v: 0 for v in range(6)}
    for link in net.static_links:
        degree[link.u] += 1
        degree[link.v] += 1
    assert all(d == 4 for d in degree.values())


def test_k_regular_rejects_odd_product() -> None:
    with pytest.raises(InvalidDegreeError):
        gen_k_regular(5, 3, seed=0)
    with pytest.raises(InvalidDegreeError):
        gen_k_regular(4, 4, seed=0)


def test_k_regular_deterministic_per_seed() -> None:
    a = gen_k_regular(10, 4, seed=123)
    b = gen_k_regular(10, 4, seed=123)
    c = gen_k_regular(10, 4, seed=124)
    assert a.static_links == b.static_links
    assert a.static_links != c.static_links


@pytest.mark.parametrize("seed", range(15))
def test_k_regular_valid_and_connected(seed) -> None:
    n, k = (10, 3) if seed % 2 else (9, 4)
    net = gen_k_regular(n, k, seed=seed)
    adjacency = {v: set() for v in range(n)}
    for link in net.static_links:
        adjacency[link.u].add(link.v)
        adjacency[link.v].add(link.u)
    seen, frontier = {0}, [0]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    assert len(seen) == n


def test_pfabric_empty_in_zero_rate_limit() -> None:
    demands = gen_pfabric_demands(6, rate=1e-12, duration=1e-12, seed=5)
    assert demands.is_empty


def test_pfabric_deterministic_per_seed() -> None:
    a = gen_pfabric_demands(8, rate=10, duration=1.0, seed=3)
    b = gen_pfabric_demands(8, rate=10, duration=1.0, seed=3)
    c = gen_pfabric_demands(8, rate=10, duration=1.0, seed=4)
    assert a == b
    assert a != c


def test_pfabric_total_demand_matches_expectation() -> None:
    # E[total] = rate*duration*mean(size); law-of-large-numbers over seeds
    dist = SizeDistribution.default()
    rate, duration = 6.0, 2.0
    totals = [
        gen_pfabric_demands(10, rate, duration, dist, seed=s).total() for s in range(1000)
    ]
    expected = rate * duration * dist.mean()
    assert np.mean(totals) == pytest.approx(expected, rel=0.05)


def test_pfabric_no_self_demands_and_valid_pairs() -> None:
    demands = gen_pfabric_demands(5, rate=50, duration=1.0, seed=9)
    for (i, j) in demands.commodities():
        assert i != j
        assert 0 <= i < 5 and 0 <= j < 5


def test_arrival_counts_are_poisson() -> None:
    # chi-square goodness of fit over a fixed seed bank at significance 0.01
    rate, duration = 4.0, 1.5
    mean = rate * duration
    dist = SizeDistribution.default()
    counts = [
        len(sample_flow_events(6, rate, duration, dist, seed=s)) for s in range(10_000)
    ]
    max_bin = int(stats.poisson.ppf(0.999, mean))
    observed = np.bincount(np.clip(counts, 0, max_bin), minlength=max_bin + 1)
    expected = np.array(
        [stats.poisson.pmf(k, mean) for k in range(max_bin)] + [1 - stats.poisson.cdf(max_bin - 1, mean)]
    ) * len(counts)
    keep = expected >= 5
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    p_value = 1 - stats.chi2.cdf(chi2, keep.sum() - 1)
    assert p_value > 0.01


def test_size_distribution_validation() -> None:
    with pytest.raises(ValueError):
        SizeDistribution(sizes=(1.0, 2.0), probabilities=(0.5,))
    with pytest.raises(ValueError):
        SizeDistribution(sizes=(1.0,), probabilities=(0.5,))
    dist = SizeDistribution(sizes=(2.0, 4.0), probabilities=(0.25, 0.75))
    assert dist.mean() == pytest.approx(3.5)


def test_load_trace_round_trip(tmp_path) -> None:
    path = tmp_path / "demands.csv"
    path.write_text("i,j,demand\n0,1,2.5\n1,0,1.0\n")
    demands, summary = load_trace(path)
    assert demands.get(0, 1) == 2.5
    assert demands.get(1, 0) == 1.0
    assert summary.nodes == 2
    assert summary.total_demand == pytest.approx(3.5)


def test_load_trace_empty_with_header(tmp_path) -> None:
    path = tmp_path / "demands.csv"
    path.write_text("i,j,demand\n")
    demands, summary = load_trace(path)
    assert demands.is_empty
    assert summary.entries == 0


def test_load_trace_malformed_row_reports_line(tmp_path) -> None:
    path = tmp_path / "demands.csv"
    path.write_text("i,j,demand\n0,1,2.5\na,b,x\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert err.value.line_no == 3


def test_load_trace_remaps_sparse_ids(tmp_path) -> None:
    path = tmp_path / "demands.csv"
    path.write_text("i,j,demand\n10,20,1.0\n20,30,2.0\n")
    demands, summary = load_trace(path)
    assert summary.nodes == 3
    assert demands.get(0, 1) == 1.0
    assert demands.get(1, 2) == 2.0


def test_write_then_load_demands(tmp_path) -> None:
    demands = gen_pfabric_demands(6, rate=8, duration=1.0, seed=2)
    path = tmp_path / "demands.csv"
    write_demands(demands, path)
    loaded, _summary = load_trace(path, remap=False)
    assert loaded == demands


def test_convert_dense_matrix(tmp_path) -> None:
    src = tmp_path / "matrix.txt"
    src.write_text("# volumes\n0 2.5 0\n1.0 0 3\n0 0 0\n")
    out = tmp_path / "demands.csv"
    summary = convert_dense_matrix(src, out)
    assert summary.nodes == 3
    assert summary.total_demand == pytest.approx(6.5)
    demands, _ = load_trace(out, remap=False)
    assert demands.get(0, 1) == 2.5
    assert demands.get(1, 2) == 3.0


def test_convert_dense_matrix_rejects_ragged_rows(tmp_path) -> None:
    src = tmp_path / "matrix.txt"
    src.write_text("0 1\n2\n")
    with pytest.raises(TraceParseError):
        convert_dense_matrix(src, tmp_path / "out.csv")


def test_k_regular_high_degree_feasible() -> None:
    # stub pairing must handle degree 8 (whole-sample rejection cannot)
    net = gen_k_regular(20, 8, seed=1)
    degree = {v: 0 for v in range(20)}
    for link in net.static_links:
        degree[link.u] += 1
        degree[link.v] += 1
    assert all(d == 8 for d in degree.values())
