"""Core domain types: hybrid networks, demands, matchings, flows, congestion.

A hybrid network couples a static (packet-switched) topology with a complete
set of candidate reconfigurable links, of which only an endpoint-disjoint
matching can be active at a time.  Every bidirected link materializes as two
anti-parallel directed links, each with its own capacity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    FlowOnUnselectedLinkError,
    InvalidDemandError,
    InvalidNetworkError,
    NonConservedFlowError,
    TopologyParseError,
)

NodeId = int

ABS_TOL = 1e-9


class LinkKind(Enum):
    STATIC = "S"
    RECONFIGURABLE = "R"


@dataclass(frozen=True)
class DirectedLink:
    """One direction of a bidirected link.

    ``copy`` is the stable index of the parallel static copy this direction
    belongs to (always 0 for reconfigurable links); it keeps flows addressable
    on static multigraphs.  Capacity is carried for convenience but does not
    take part in identity.
    """

    tail: NodeId
    head: NodeId
    kind: LinkKind
    capacity: float = field(compare=False)
    copy: int = 0

    def __repr__(self) -> str:
        tag = self.kind.value
        return f"{tag}{self.copy}({self.tail}->{self.head}, c={self.capacity:g})"


def arc_order(arc: DirectedLink) -> tuple:
    """The one sort key of arcs: tail, head, kind (R before S), copy."""
    return (arc.tail, arc.head, arc.kind.value, arc.copy)


@dataclass(frozen=True)
class StaticLink:
    """A bidirected static link with per-direction capacities."""

    u: NodeId
    v: NodeId
    cap_uv: float
    cap_vu: float


@dataclass(frozen=True)
class ReconfLink:
    """A candidate reconfigurable link; endpoints stored with u < v."""

    u: NodeId
    v: NodeId
    cap_uv: float
    cap_vu: float


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


def pair_key(i: NodeId, j: NodeId) -> tuple[NodeId, NodeId]:
    """Canonical unordered pair."""
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class HybridNetwork:
    """Static topology plus the complete candidate set of reconfigurable links.

    Every node pair is a candidate.  A pair has ``reconf_default`` capacity in
    both directions unless ``reconf_overrides`` lists it as
    ``((i, j), (cap i->j, cap j->i))``.  Construction stores the overrides as
    a sorted tuple with i < j: a key given as (j, i) has its capacities
    swapped, and of two entries for one pair the later wins.  Construction
    raises one ``InvalidNetworkError`` listing every structural issue, so no
    invalid network exists.  Immutable after construction; safe to share
    across workers.
    """

    n: int
    static_links: tuple[StaticLink, ...]
    reconf_default: float = 1.0
    reconf_overrides: tuple[tuple[tuple[NodeId, NodeId], tuple[float, float]], ...] = ()

    def __post_init__(self) -> None:
        overrides: dict[tuple[NodeId, NodeId], tuple[float, float]] = {}
        for (i, j), (cf, cb) in self.reconf_overrides:
            overrides[pair_key(i, j)] = (cf, cb) if i <= j else (cb, cf)
        object.__setattr__(self, "reconf_overrides", tuple(sorted(overrides.items())))
        issues: list[ValidationIssue] = []
        if self.n < 1:
            issues.append(ValidationIssue("EmptyNodeSet", "need at least one node"))
        for idx, link in enumerate(self.static_links):
            caps = (link.cap_uv, link.cap_vu)
            issues += _link_issues(f"static link {idx}", link.u, link.v, caps, self.n)
        for (i, j), caps in self.reconf_overrides:
            issues += _link_issues(f"reconfigurable pair ({i}, {j})", i, j, caps, self.n)
        if sum(0 <= i < j < self.n for i, j in overrides) < self.n * (self.n - 1) // 2:
            issues += _capacity_issues("the default reconfigurable capacity", (self.reconf_default,))
        if issues:
            raise InvalidNetworkError(issues)
        object.__setattr__(self, "_override_by_pair", overrides)
        arcs = []
        for idx, link in enumerate(self.static_links):
            arcs.append(DirectedLink(link.u, link.v, LinkKind.STATIC, link.cap_uv, idx))
            arcs.append(DirectedLink(link.v, link.u, LinkKind.STATIC, link.cap_vu, idx))
        object.__setattr__(self, "_static_arcs", tuple(arcs))

    @classmethod
    def build(
        cls,
        n: int,
        static: Iterable[tuple[NodeId, NodeId, float, float]] = (),
        reconf_default: float = 1.0,
        reconf_overrides: Mapping[tuple[NodeId, NodeId], tuple[float, float]] | None = None,
    ) -> "HybridNetwork":
        """Assemble a network with the complete reconfigurable candidate set.

        ``reconf_overrides`` maps a pair (i, j) to (cap i->j, cap j->i), in
        either order of the pair.  Every other pair gets ``reconf_default`` in
        both directions.
        """
        static_links = tuple(StaticLink(u, v, cf, cb) for u, v, cf, cb in static)
        return cls(n, static_links, reconf_default, tuple((reconf_overrides or {}).items()))

    @property
    def reconf_links(self) -> tuple[ReconfLink, ...]:
        """Every candidate pair as a ``ReconfLink``, in pair order (O(n^2))."""
        return tuple(
            ReconfLink(i, j, self.reconf_capacity(i, j), self.reconf_capacity(j, i))
            for i, j in itertools.combinations(range(self.n), 2)
        )

    def static_arcs(self) -> tuple[DirectedLink, ...]:
        return self._static_arcs  # type: ignore[attr-defined]

    def reconf_capacity(self, i: NodeId, j: NodeId) -> float:
        """Capacity of the reconfigurable direction i -> j."""
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise KeyError(f"no reconfigurable candidate for pair {pair_key(i, j)}")
        caps = self._override_by_pair.get(pair_key(i, j))  # type: ignore[attr-defined]
        if caps is None:
            return self.reconf_default
        return caps[0] if i < j else caps[1]

    def reconf_arc(self, i: NodeId, j: NodeId) -> DirectedLink:
        return DirectedLink(i, j, LinkKind.RECONFIGURABLE, self.reconf_capacity(i, j), 0)

    def uses_default(self) -> bool:
        """Whether some candidate pair has the default capacity."""
        return len(self.reconf_overrides) < self.n * (self.n - 1) // 2

    def capacities(self) -> set[float]:
        """The distinct capacities over every link direction."""
        caps = {c for link in self.static_links for c in (link.cap_uv, link.cap_vu)}
        caps.update(c for _, pair_caps in self.reconf_overrides for c in pair_caps)
        if self.uses_default():
            caps.add(self.reconf_default)
        return caps

    @property
    def c_max(self) -> float:
        return max(self.capacities(), default=0.0)

    @property
    def c_min(self) -> float:
        return min(self.capacities(), default=0.0)


def _link_issues(what: str, u: NodeId, v: NodeId, caps: tuple[float, ...], n: int) -> list[ValidationIssue]:
    issues = []
    if u == v:
        issues.append(ValidationIssue("SelfLoop", f"{what} is a self-loop at {u}"))
    if not (0 <= u < n and 0 <= v < n):
        issues.append(ValidationIssue("NodeOutOfRange", f"{what} endpoints outside [0, {n})"))
    issues.extend(_capacity_issues(what, caps))
    return issues


def _capacity_issues(what: str, caps: tuple[float, ...]) -> list[ValidationIssue]:
    if not all(map(math.isfinite, caps)):
        return [ValidationIssue("NonFiniteCapacity", f"{what} has a non-finite capacity")]
    if min(caps) < 0:
        return [ValidationIssue("NegativeCapacity", f"{what} has a negative capacity")]
    return []


def check_endpoints(net: HybridNetwork, demands: DemandMatrix) -> None:
    """Raise unless every demand endpoint is one of the network's nodes."""
    for i, j in demands.commodities():
        if not (0 <= i < net.n and 0 <= j < net.n):
            raise InvalidDemandError(f"demand ({i}, {j}) has an endpoint outside [0, {net.n})")


class DemandStructure(Enum):
    MULTI = "multi"
    SINGLE_SOURCE = "single_source"
    SINGLE_DESTINATION = "single_destination"
    SINGLE_COMMODITY = "single_commodity"


class DemandMatrix:
    """Finite nonnegative demand per ordered node pair; zero entries are
    dropped."""

    def __init__(self, entries: Mapping[tuple[NodeId, NodeId], float]):
        cleaned: dict[tuple[NodeId, NodeId], float] = {}
        for (i, j), d in entries.items():
            if i == j:
                raise InvalidDemandError(f"self-demand at node {i}")
            if not math.isfinite(d):
                raise InvalidDemandError(f"non-finite demand {d} for ({i}, {j})")
            if d < 0:
                raise InvalidDemandError(f"negative demand for ({i}, {j})")
            if d > 0:
                cleaned[(i, j)] = float(d)
        self._entries = dict(sorted(cleaned.items()))
        try:
            self._total = math.fsum(cleaned.values())
        except OverflowError:
            raise InvalidDemandError("the demands sum past the largest float") from None

    def get(self, i: NodeId, j: NodeId) -> float:
        return self._entries.get((i, j), 0.0)

    @property
    def entries(self) -> dict[tuple[NodeId, NodeId], float]:
        return dict(self._entries)

    def commodities(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Ordered pairs with positive demand, in sorted order."""
        return tuple(self._entries.keys())

    def positive_pairs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Unordered pairs {i, j} with d_ij + d_ji > 0, sorted."""
        return tuple(sorted({pair_key(i, j) for (i, j) in self._entries}))

    def pair_weight(self, i: NodeId, j: NodeId) -> float:
        return self.get(i, j) + self.get(j, i)

    def total(self) -> float:
        return self._total

    def max_demand(self) -> float:
        return max(self._entries.values(), default=0.0)

    def without_pairs(self, pairs: Iterable[tuple[NodeId, NodeId]]) -> "DemandMatrix":
        """Copy with both directions of the given unordered pairs zeroed."""
        drop = {pair_key(i, j) for (i, j) in pairs}
        kept = {k: v for k, v in self._entries.items() if pair_key(*k) not in drop}
        return DemandMatrix(kept)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DemandMatrix) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"DemandMatrix({self._entries})"


def classify_demands(demands: DemandMatrix) -> DemandStructure:
    """The shape of the demand set, which picks the exact solver (none: MULTI)."""
    commodities = demands.commodities()
    if len(commodities) == 1:
        return DemandStructure.SINGLE_COMMODITY
    if len({i for i, _ in commodities}) == 1:
        return DemandStructure.SINGLE_SOURCE
    if len({j for _, j in commodities}) == 1:
        return DemandStructure.SINGLE_DESTINATION
    return DemandStructure.MULTI


class Matching:
    """An endpoint-disjoint set of reconfigurable pairs (the active links)."""

    def __init__(self, pairs: Iterable[tuple[NodeId, NodeId]] = ()):
        canon = sorted(pair_key(i, j) for (i, j) in pairs)
        nodes: set[NodeId] = set()
        for i, j in canon:
            if i == j:
                raise ValueError(f"matching pair with equal endpoints: {i}")
            if i in nodes or j in nodes:
                raise ValueError(f"node reused in matching: pair ({i}, {j})")
            nodes.add(i)
            nodes.add(j)
        self._pairs = tuple(canon)
        self._pair_set = frozenset(canon)
        self._nodes = frozenset(nodes)

    @classmethod
    def greedy(
        cls, weights: Iterable[tuple[tuple[NodeId, NodeId], float]], above: float
    ) -> "Matching":
        """Take (pair, weight) items by descending weight, ties broken by pair,
        while the weight exceeds ``above``; a pair with an endpoint already
        taken is skipped."""
        chosen: list[tuple[NodeId, NodeId]] = []
        used: set[NodeId] = set()
        for pair, weight in sorted(weights, key=lambda item: (-item[1], item[0])):
            if weight <= above:
                break
            if used.isdisjoint(pair):
                chosen.append(pair)
                used.update(pair)
        return cls(chosen)

    @property
    def pairs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        return self._pairs

    @property
    def nodes(self) -> frozenset:
        return self._nodes

    def __contains__(self, pair: tuple[NodeId, NodeId]) -> bool:
        return pair_key(*pair) in self._pair_set

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matching) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Matching({list(self._pairs)})"

    def arcs(self, net: HybridNetwork) -> tuple[DirectedLink, ...]:
        out = []
        for i, j in self._pairs:
            out.append(net.reconf_arc(i, j))
            out.append(net.reconf_arc(j, i))
        return tuple(out)


FlowPath = tuple[tuple[NodeId, NodeId], tuple[DirectedLink, ...], float]


class Flow:
    """A routing as its paths: (commodity, arc sequence, amount) entries.

    The per-commodity values on each directed link are a view summed from
    the paths; a flow built from walks conserves every commodity exactly.
    """

    def __init__(self, paths: Iterable[FlowPath] = ()):
        self.paths = tuple(paths)

    @cached_property
    def by_commodity(self) -> dict[tuple[NodeId, NodeId], dict[DirectedLink, float]]:
        """Each commodity's flow per link, summed over its paths in order;
        zero entries are dropped."""
        sums: dict[tuple[NodeId, NodeId], dict[DirectedLink, float]] = {}
        for commodity, arcs, amount in self.paths:
            links = sums.setdefault(commodity, {})
            for arc in arcs:
                links[arc] = links.get(arc, 0.0) + amount
        return {
            k: {a: float(v) for a, v in links.items() if v != 0.0} for k, links in sums.items()
        }

    def net_outflow(self, commodity: tuple[NodeId, NodeId], node: NodeId) -> float:
        links = self.by_commodity.get(commodity, {})
        out = math.fsum(v for a, v in links.items() if a.tail == node)
        inn = math.fsum(v for a, v in links.items() if a.head == node)
        return out - inn

    def conservation_residual(self, commodity: tuple[NodeId, NodeId]) -> float:
        """Largest |net flow| over interior nodes of the commodity."""
        flows: dict[NodeId, list[float]] = {}  # out positive, in negative
        for arc, value in self.by_commodity.get(commodity, {}).items():
            flows.setdefault(arc.tail, []).append(value)
            flows.setdefault(arc.head, []).append(-value)
        interior = (math.fsum(v) for node, v in flows.items() if node not in commodity)
        return max(map(abs, interior), default=0.0)


@dataclass(frozen=True)
class CongestionReport:
    """Maximum link load, the link achieving it, and the full load map."""

    max_load: float
    argmax_link: DirectedLink | None
    per_link_loads: dict[DirectedLink, float]


class ArcIds:
    """Arcs numbered once, with the one load rule: flow over capacity, and on
    a zero-capacity arc infinity for flow above ``ABS_TOL``, else 0."""

    def __init__(self, arcs: Iterable[DirectedLink]):
        self.arcs = tuple(arcs)
        self.id = {arc: k for k, arc in enumerate(self.arcs)}
        capacity = np.array([arc.capacity for arc in self.arcs])
        self._dead = np.flatnonzero(capacity <= 0)
        self._divisor = np.where(capacity > 0, capacity, 1.0)

    @classmethod
    def network(cls, net: HybridNetwork, matching: Matching) -> "ArcIds":
        """A reconfigured network's arcs in congestion order: static, then matched."""
        return cls(net.static_arcs() + matching.arcs(net))

    @cached_property
    def ends(self) -> tuple[list[NodeId], list[NodeId], list[int]]:
        """Each id's tail and head, and its rank in ``arc_order``."""
        order = sorted(range(len(self.arcs)), key=lambda k: arc_order(self.arcs[k]))
        ranks = [0] * len(order)
        for rank, k in enumerate(order):
            ranks[k] = rank
        return [arc.tail for arc in self.arcs], [arc.head for arc in self.arcs], ranks

    def loads(self, ids: np.ndarray, amounts: np.ndarray) -> np.ndarray:
        """Each arc's load when ``amounts[k]`` flows on arc ``ids[k]``, summed in order."""
        flow = np.bincount(ids, weights=amounts, minlength=len(self.arcs))
        loads = flow / self._divisor
        if self._dead.size:
            loads[self._dead] = np.where(flow[self._dead] > ABS_TOL, math.inf, 0.0)
        return loads


def congestion_of(net: HybridNetwork, matching: Matching, flow: Flow) -> CongestionReport:
    """Loads induced by ``flow`` on the reconfigured network.

    Every path must be a walk from its commodity's source to its sink over
    links of the reconfigured network.  Each link's load adds the path
    amounts on it in path order.  Flow values may exceed capacities; a
    positive flow on a zero-capacity link yields an infinite load rather
    than an error so optimizers can still rank infeasible routings.
    """
    numbered = ArcIds.network(net, matching)
    for (source, sink), arcs, _ in flow.paths:
        nodes = [source] + [arc.head for arc in arcs]
        if nodes[-1] != sink or any(arc.tail != node for arc, node in zip(arcs, nodes)):
            raise NonConservedFlowError(
                f"a path of commodity {(source, sink)} is not a walk from {source} to {sink}"
            )
    ids = [numbered.id.get(arc) for _, arcs, _ in flow.paths for arc in arcs]
    if None in ids:
        commodity, arc = [(c, arc) for c, arcs, _ in flow.paths for arc in arcs][ids.index(None)]
        raise FlowOnUnselectedLinkError(
            f"commodity {commodity} uses {arc!r} outside the reconfigured network"
        )
    amounts = [amount for _, arcs, amount in flow.paths for _ in arcs]
    loads = numbered.loads(np.array(ids, dtype=np.intp), np.array(amounts))
    max_load = float(loads.max(initial=0.0))
    argmax = numbered.arcs[int(np.argmax(loads))] if max_load > 0 else None
    return CongestionReport(max_load, argmax, dict(zip(numbered.arcs, loads.tolist())))


def infinite_congestion() -> CongestionReport:
    """Sentinel report for instances where some demand has no route."""
    return CongestionReport(max_load=math.inf, argmax_link=None, per_link_loads={})


# ---------------------------------------------------------------------------
# Topology file format: an optional ``# nodes=N`` header, then one record
# per bidirected link,
#   kind tail head cap_forward cap_backward      (kind S or R)
# with '#' comment lines.  Without the header the node count is one more than
# the largest id.  An R record overrides one candidate pair (``R j i`` means
# ``R i j`` with the capacities swapped); pairs without one get a configured
# default capacity, so the candidate set stays complete.
# ---------------------------------------------------------------------------


def topology_records(net: HybridNetwork) -> Iterator[str]:
    """The S and R record lines of ``net``, each ending in a newline: the
    static links in order, then every candidate pair in pair order, one
    chunk of lines per node row.  A row's runs of default-capacity pairs are
    formatted with one ``join`` each."""
    yield "".join(
        f"S {link.u} {link.v} {link.cap_uv:.12g} {link.cap_vu:.12g}\n" for link in net.static_links
    )
    suffix = f" {net.reconf_default:.12g} {net.reconf_default:.12g}\n"
    rows: dict[NodeId, list[tuple[NodeId, tuple[float, float]]]] = {}
    for (i, j), caps in net.reconf_overrides:  # sorted, with i < j
        rows.setdefault(i, []).append((j, caps))
    for i in range(net.n - 1):
        prefix, chunk, start = f"R {i} ", [], i + 1
        for j, (cap_ij, cap_ji) in rows.get(i, ()):
            if start <= j < net.n:
                chunk.append(_default_records(prefix, suffix, start, j))
                chunk.append(f"{prefix}{j} {cap_ij:.12g} {cap_ji:.12g}\n")
                start = j + 1
        chunk.append(_default_records(prefix, suffix, start, net.n))
        yield "".join(chunk)


def _default_records(prefix: str, suffix: str, start: int, stop: int) -> str:
    """The records ``prefix j suffix`` of the pairs j in [start, stop)."""
    if start >= stop:
        return ""
    return prefix + (suffix + prefix).join(map(str, range(start, stop))) + suffix


def write_topology(net: HybridNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes={net.n}\n")
        fh.writelines(topology_records(net))


def read_topology(path, default_reconf_capacity: float = 1.0) -> HybridNetwork:
    static: list[tuple[int, int, float, float]] = []
    overrides: dict[tuple[int, int], tuple[float, float]] = {}
    header_nodes: int | None = None
    max_node, max_record = -1, (0, "")
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep and key.strip() == "nodes":
                    try:
                        header_nodes = int(value)
                    except ValueError as exc:
                        raise TopologyParseError(line_no, line) from exc
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5 or parts[0] not in ("S", "R"):
                raise TopologyParseError(line_no, line)
            kind, u_s, v_s, cf_s, cb_s = parts
            try:
                u, v = int(u_s), int(v_s)
                cf, cb = float(cf_s), float(cb_s)
            except ValueError as exc:
                raise TopologyParseError(line_no, line) from exc
            if max(u, v) > max_node:
                max_node, max_record = max(u, v), (line_no, line)
            if kind == "S":
                static.append((u, v, cf, cb))
            else:
                overrides.pop((v, u), None)  # the later record wins
                overrides[(u, v)] = (cf, cb)
    n = max_node + 1 if header_nodes is None else header_nodes
    if max_node >= n:
        raise TopologyParseError(
            *max_record, reason=f"node {max_node} outside the header's {n} nodes"
        )
    return HybridNetwork.build(
        n, static, reconf_default=default_reconf_capacity, reconf_overrides=overrides
    )
