"""Instance generation: random regular topologies, Poisson-arrival synthetic
demand matrices, and demand-trace ingestion.

Everything here is deterministic for a fixed seed, so experiment runs are
reproducible end to end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationTimeoutError, InvalidDegreeError, TraceParseError
from .model import DemandMatrix, HybridNetwork

_REJECTION_BUDGET = 10_000
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)  # numpy's cap

# Heavy-tailed flow-size law, (size, probability).  The published workloads
# this mimics do not pin the distribution, so the default is an explicit
# artifact choice and fully overridable.
DEFAULT_FLOW_SIZES: tuple[tuple[float, float], ...] = (
    (1.0, 0.50),
    (10.0, 0.28),
    (100.0, 0.15),
    (1000.0, 0.06),
    (10000.0, 0.01),
)


@dataclass(frozen=True)
class SizeDistribution:
    """Discrete flow-size distribution."""

    sizes: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.probabilities) or not self.sizes:
            raise ValueError("sizes and probabilities must align and be nonempty")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if any(s <= 0 for s in self.sizes) or any(p < 0 for p in self.probabilities):
            raise ValueError("sizes must be positive and probabilities nonnegative")

    @classmethod
    def default(cls) -> "SizeDistribution":
        sizes, probs = zip(*DEFAULT_FLOW_SIZES)
        return cls(sizes=sizes, probabilities=probs)

    def mean(self) -> float:
        return float(sum(s * p for s, p in zip(self.sizes, self.probabilities)))

    def sample(self, rng: np.random.Generator) -> float:
        index = rng.choice(len(self.sizes), p=self.probabilities)
        return self.sizes[index]


@dataclass(frozen=True)
class WorkloadConfig:
    """One experiment point: topology parameters plus the demand model."""

    n: int
    k: int
    seed: int
    default_capacity: float = 1.0
    rate: float = 10.0
    duration: float = 1.0
    size_distribution: SizeDistribution = field(default_factory=SizeDistribution.default)
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.n * self.k % 2 != 0 or self.k >= self.n or self.k < 1:
            raise InvalidDegreeError(f"no {self.k}-regular graph on {self.n} nodes")
        if self.trace_path is None:
            _require_arrivals(self.rate, self.duration)
        _require_positive(default_capacity=self.default_capacity)


def gen_k_regular(n: int, k: int, seed: int, capacity: float = 1.0) -> HybridNetwork:
    """Random simple connected k-regular static topology.

    Stub pairing with suitable-pair sampling: stubs are shuffled and paired,
    colliding pairs (self-loops, duplicate edges) are thrown back for the
    next round, and the whole draw restarts when no suitable pair remains.
    Disconnected outcomes are rejected wholesale, never repaired.  Plain
    whole-sample rejection would be hopeless already at degree 8 (acceptance
    decays like exp(-(k*k-1)/4)), while this sampler stays asymptotically
    uniform.  The complete reconfigurable candidate set gets ``capacity`` in
    both directions.
    """
    if n * k % 2 != 0 or k >= n or k < 1:
        raise InvalidDegreeError(f"no {k}-regular graph on {n} nodes")
    rng = np.random.default_rng(seed)
    for _ in range(_REJECTION_BUDGET):
        edges = _pair_stubs(n, k, rng)
        if edges is None or not _connected(n, edges):
            continue
        static = [(u, v, capacity, capacity) for (u, v) in sorted(edges)]
        return HybridNetwork.build(n, static, reconf_default=capacity)
    raise GenerationTimeoutError(
        f"could not sample a simple connected {k}-regular graph on {n} nodes"
    )


def _pair_stubs(n: int, k: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """One suitable-pair pairing attempt; None when it wedges."""
    edges: set[tuple[int, int]] = set()
    stubs = list(np.repeat(np.arange(n), k))
    while stubs:
        order = [int(s) for s in rng.permutation(stubs)]
        leftover: list[int] = []
        for idx in range(0, len(order), 2):
            u, v = order[idx], order[idx + 1]
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                leftover += [u, v]
            else:
                edges.add(key)
        if len(leftover) == len(stubs):
            # no pairing progress this round: wedged iff no suitable pair exists
            remaining = set(leftover)
            if not any(
                a != b and (min(a, b), max(a, b)) not in edges
                for a in remaining
                for b in remaining
            ):
                return None
        stubs = leftover
    return edges


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == n


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < np.inf:  # a nan fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_arrivals(rate: float, duration: float) -> None:
    """Refuse what numpy's Poisson draw would refuse, naming the options."""
    _require_positive(rate=rate, duration=duration)
    if rate * duration > _POISSON_LAM_MAX:
        raise ValueError(
            f"rate * duration must be at most {_POISSON_LAM_MAX:.6g}, got {rate * duration:.6g}"
        )


def sample_flow_events(
    n: int,
    rate: float,
    duration: float,
    size_distribution: SizeDistribution,
    seed: int,
) -> list[tuple[int, int, float]]:
    """Poisson(rate*duration) arrivals, each a uniform ordered pair + size."""
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(rate * duration))
    events = []
    for _ in range(count):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        events.append((i, j, float(size_distribution.sample(rng))))
    return events


def gen_pfabric_demands(
    n: int,
    rate: float,
    duration: float,
    size_distribution: SizeDistribution | None = None,
    seed: int = 0,
) -> DemandMatrix:
    """Aggregate synthetic Poisson flow arrivals into a demand matrix."""
    _require_arrivals(rate, duration)
    dist = size_distribution or SizeDistribution.default()
    entries: dict[tuple[int, int], float] = {}
    for i, j, size in sample_flow_events(n, rate, duration, dist, seed):
        entries[(i, j)] = entries.get((i, j), 0.0) + size
    return DemandMatrix(entries)


@dataclass(frozen=True)
class TraceSummary:
    nodes: int
    entries: int
    total_demand: float


def load_trace(path, remap: bool = True) -> tuple[DemandMatrix, TraceSummary]:
    """Read an ``i,j,demand`` CSV; node ids are remapped densely by default.

    Pass ``remap=False`` when the ids must stay aligned with a topology file
    (idle nodes would otherwise shift every id down).  Raises TraceParseError
    with the offending line number on malformed rows.
    """
    raw: list[tuple[int, int, float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if line_no == 1 and row and row[0].strip().lower() == "i":
                continue  # header
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise TraceParseError(line_no, f"expected 3 fields, got {len(row)}")
            try:
                i, j = int(row[0]), int(row[1])
                demand = float(row[2])
            except ValueError:
                raise TraceParseError(line_no, f"unparseable row {row!r}") from None
            if demand < 0:
                raise TraceParseError(line_no, "negative demand")
            raw.append((i, j, demand))
    ids = sorted({i for i, _, _ in raw} | {j for _, j, _ in raw})
    mapping = {node: dense for dense, node in enumerate(ids)} if remap else {n: n for n in ids}
    entries: dict[tuple[int, int], float] = {}
    for i, j, demand in raw:
        if i == j:
            continue
        key = (mapping[i], mapping[j])
        entries[key] = entries.get(key, 0.0) + demand
    matrix = DemandMatrix(entries)
    summary = TraceSummary(
        nodes=len(ids), entries=len(matrix.commodities()), total_demand=matrix.total()
    )
    return matrix, summary


def write_demands(demands: DemandMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "demand"])
        for (i, j), d in sorted(demands.entries.items()):
            writer.writerow([i, j, f"{d:.12g}"])


def convert_dense_matrix(path_in, path_out) -> TraceSummary:
    """Convert a whitespace-separated dense traffic matrix to the demand CSV.

    Published cluster traces are commonly shipped as an n-by-n matrix of
    per-pair volumes (row = source, column = destination); this adapter turns
    that format into the ``i,j,demand`` schema the loader consumes.
    Self-entries on the diagonal are ignored.
    """
    entries: dict[tuple[int, int], float] = {}
    with open(path_in, "r", encoding="utf-8") as fh:
        matrix = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    for i, row in enumerate(matrix):
        if len(row) != len(matrix):
            raise TraceParseError(i + 1, f"expected {len(matrix)} columns, got {len(row)}")
        for j, cell in enumerate(row):
            if i == j:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise TraceParseError(i + 1, f"unparseable volume {cell!r}") from None
            if value > 0:
                entries[(i, j)] = value
    demands = DemandMatrix(entries)
    write_demands(demands, path_out)
    return TraceSummary(
        nodes=len(matrix), entries=len(demands.commodities()), total_demand=demands.total()
    )


def build_instance(config: WorkloadConfig) -> tuple[HybridNetwork, DemandMatrix]:
    """Materialize the (network, demands) pair for one workload point."""
    net = gen_k_regular(config.n, config.k, config.seed, capacity=config.default_capacity)
    if config.trace_path is not None:
        demands, _summary = load_trace(config.trace_path)
        if demands.commodities() and max(max(i, j) for i, j in demands.commodities()) >= config.n:
            raise ValueError("trace references nodes outside the generated topology")
    else:
        demands = gen_pfabric_demands(
            config.n,
            config.rate,
            config.duration,
            config.size_distribution,
            seed=config.seed + 1,  # decouple arrival noise from the topology draw
        )
    return net, demands
