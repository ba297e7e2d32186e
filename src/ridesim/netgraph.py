"""Road network representation, skim matrices, synthetic grids and graph I/O.

The network is a strongly connected directed graph with free-flow edge speeds;
travel times are continuous seconds. The skim stores both shortest travel time
and the distance of that same minimizing path, so fares (per km) and ETAs
(per second) come from a single lookup.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from ridesim.errors import GraphParseError, GraphValidationError
from ridesim.util import read_csv, write_csv

NODES_HEADER = ["node_id", "x", "y"]
EDGES_HEADER = ["from", "to", "length_m", "speed_mps"]


@dataclass(frozen=True)
class Node:
    node_id: int
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    length_m: float
    speed_mps: float

    @property
    def travel_time_s(self) -> float:
        return self.length_m / self.speed_mps


@dataclass(frozen=True)
class RoadNetwork:
    """Validated directed road graph. Immutable; safe to share across runs."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def content_key(self) -> str:
        """Canonical string identifying the graph's content (for caching)."""
        parts = [f"n:{nd.node_id},{nd.x!r},{nd.y!r}" for nd in self.nodes]
        parts += [f"e:{e.src},{e.dst},{e.length_m!r},{e.speed_mps!r}" for e in self.edges]
        return "|".join(parts)


@dataclass(frozen=True)
class SkimMatrix:
    """All-pairs shortest travel times and the distances of those paths.

    ``travel_time[u, v]`` is the minimal time in seconds; ``distance[u, v]``
    the length in meters of the same minimizing path (ties broken by minimal
    distance). Diagonals are exactly zero; strong connectivity guarantees all
    entries finite.
    """

    travel_time: np.ndarray
    distance: np.ndarray

    def __post_init__(self):
        self.travel_time.setflags(write=False)
        self.distance.setflags(write=False)


def _validate(nodes: list[Node], edges: list[Edge], source: str) -> RoadNetwork:
    n = len(nodes)
    if n == 0:
        raise GraphValidationError(f"{source}: graph has no nodes")
    ids = [nd.node_id for nd in nodes]
    if sorted(ids) != list(range(n)):
        seen: set[int] = set()
        for nd in nodes:
            if nd.node_id in seen:
                raise GraphValidationError(f"{source}: duplicate node id {nd.node_id}")
            seen.add(nd.node_id)
        missing = sorted(set(range(n)) - seen)
        bad = missing[0] if missing else max(ids)
        raise GraphValidationError(
            f"{source}: node ids must be dense in [0, {n}); problem at id {bad}"
        )
    nodes = sorted(nodes, key=lambda nd: nd.node_id)
    for i, e in enumerate(edges):
        if not (0 <= e.src < n) or not (0 <= e.dst < n):
            raise GraphValidationError(
                f"{source}: edge {i} ({e.src}->{e.dst}) references a missing node"
            )
        if not 0 < e.length_m < math.inf:
            raise GraphValidationError(
                f"{source}: edge {i} ({e.src}->{e.dst}) has non-positive or "
                f"non-finite length {e.length_m}"
            )
        if not 0 < e.speed_mps < math.inf:
            raise GraphValidationError(
                f"{source}: edge {i} ({e.src}->{e.dst}) has non-positive or "
                f"non-finite speed {e.speed_mps}"
            )
    net = RoadNetwork(nodes=tuple(nodes), edges=tuple(edges))
    _check_strong_connectivity(net, source)
    return net


def _check_strong_connectivity(net: RoadNetwork, source: str) -> None:
    src = [e.src for e in net.edges]
    dst = [e.dst for e in net.edges]
    graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(net.n, net.n))
    for label, adj in (("from", graph), ("towards", graph.T)):
        cut_off = np.ones(net.n, dtype=bool)
        cut_off[breadth_first_order(adj, 0, return_predecessors=False)] = False
        if cut_off.any():
            raise GraphValidationError(
                f"{source}: graph is not strongly connected; "
                f"node {np.argmax(cut_off)} is unreachable {label} node 0"
            )


def grid_city(rows: int, cols: int, spacing: float, speed: float) -> RoadNetwork:
    """Manhattan grid of ``rows`` x ``cols`` nodes with bidirectional edges
    between 4-neighbours. Node (r, c) has id ``r * cols + c``; all edges have
    length ``spacing`` meters and the given free-flow speed."""
    if rows < 2 or cols < 2:
        raise GraphValidationError(f"grid_city needs rows, cols >= 2 (got {rows}x{cols})")
    if spacing <= 0 or speed <= 0:
        raise GraphValidationError("grid_city needs spacing > 0 and speed > 0")
    nodes = [
        Node(node_id=r * cols + c, x=c * spacing, y=r * spacing)
        for r in range(rows)
        for c in range(cols)
    ]
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                v = u + 1
                edges.append(Edge(u, v, spacing, speed))
                edges.append(Edge(v, u, spacing, speed))
            if r + 1 < rows:
                v = u + cols
                edges.append(Edge(u, v, spacing, speed))
                edges.append(Edge(v, u, spacing, speed))
    return _validate(nodes, edges, f"grid_city({rows}x{cols})")


def load_graph(path: str | Path, edges_path: str | Path | None = None) -> RoadNetwork:
    """Load and validate a network from the two-file graph CSV format.

    ``path`` is either a directory containing ``nodes.csv`` and ``edges.csv``,
    or the nodes file itself with ``edges_path`` naming the edges file
    (defaulting to a sibling ``edges.csv``).
    """
    p = Path(path)
    if p.is_dir():
        nodes_p, edges_p = p / "nodes.csv", p / "edges.csv"
    else:
        nodes_p = p
        edges_p = Path(edges_path) if edges_path is not None else p.with_name("edges.csv")
    nodes = [Node(*row) for _, row in
             read_csv(nodes_p, NODES_HEADER, (int, float, float), _parse_error(nodes_p))]
    edges = [Edge(*row) for _, row in
             read_csv(edges_p, EDGES_HEADER, (int, int, float, float), _parse_error(edges_p))]
    return _validate(nodes, edges, str(nodes_p.parent))


def _parse_error(path: Path):
    """The ``fail`` of ``read_csv`` for a graph file."""
    return lambda why, line: GraphParseError(
        f"{path}: row {line}: {why}" if line else f"{path}: {why}")


def save_graph(net: RoadNetwork, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``nodes.csv`` and ``edges.csv`` for ``net`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes_p, edges_p = out / "nodes.csv", out / "edges.csv"
    write_csv(nodes_p, NODES_HEADER,
              ((nd.node_id, nd.x, nd.y) for nd in net.nodes), "\n")
    write_csv(edges_p, EDGES_HEADER,
              ((e.src, e.dst, e.length_m, e.speed_mps) for e in net.edges), "\n")
    return nodes_p, edges_p


def build_skim(net: RoadNetwork) -> SkimMatrix:
    """All-pairs shortest paths under the lexicographic (time, distance) cost.

    One Dijkstra search over all sources gives the travel times. Per source,
    a second search over the edges that lie on a fastest path (``t[s, u] +
    et == t[s, v]``), weighted by length, gives the shortest of those paths.
    """
    n = net.n
    src = np.array([e.src for e in net.edges], dtype=np.int64)
    dst = np.array([e.dst for e in net.edges], dtype=np.int64)
    et = np.array([e.travel_time_s for e in net.edges])
    el = np.array([e.length_m for e in net.edges])
    # parallel edges: keep the fastest, ties to the shorter, so the matrix
    # has one entry per node pair (scipy sums duplicates when it
    # canonicalises a matrix)
    order = np.lexsort((el, et, dst, src))
    src, dst, et, el = src[order], dst[order], et[order], el[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst, et, el = src[first], dst[first], et[first], el[first]
    indptr = np.searchsorted(src, np.arange(n + 1))
    graph = csr_matrix((et.copy(), dst, indptr), shape=(n, n))
    tt = dijkstra(graph)
    dist = np.empty((n, n))
    for s in range(n):
        row = tt[s]
        graph.data[:] = np.where(row[src] + et == row[dst], el, np.inf)
        dist[s] = dijkstra(graph, indices=s)
    return SkimMatrix(travel_time=tt, distance=dist)
