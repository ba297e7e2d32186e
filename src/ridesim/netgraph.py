"""Road network representation, skim matrices, synthetic grids and graph I/O.

The network is a strongly connected directed graph with free-flow edge speeds;
travel times are continuous seconds. The skim stores both shortest travel time
and the distance of that same minimizing path, so fares (per km) and ETAs
(per second) come from a single lookup.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from ridesim.errors import ConfigError
from ridesim.util import integer, number, read_csv, write_csv

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
    """Validated directed road graph. Immutable; safe to share across runs.
    ``edges_source`` names where the edges came from, for error messages;
    a network built without it is named ``RoadNetwork(<n> nodes)``."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    edges_source: str = field(default="", compare=False)

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
    distance). Diagonals are exactly zero; ``build_skim`` checks that all
    entries are finite.
    """

    travel_time: np.ndarray
    distance: np.ndarray

    def __post_init__(self):
        self.travel_time.setflags(write=False)
        self.distance.setflags(write=False)


def _validate(nodes: list[Node], edges: list[Edge], source: str,
              edges_source: str) -> RoadNetwork:
    """The network of ``nodes`` and ``edges``, checked; a ``ConfigError``
    names the graph by ``source`` or, for one edge, the edges by
    ``edges_source``."""
    n = len(nodes)
    if n == 0:
        raise ConfigError(source, "graph has no nodes")
    ids = [nd.node_id for nd in nodes]
    if sorted(ids) != list(range(n)):
        seen: set[int] = set()
        for nd in nodes:
            if nd.node_id in seen:
                raise ConfigError(source, f"duplicate node id {nd.node_id}")
            seen.add(nd.node_id)
        missing = sorted(set(range(n)) - seen)
        bad = missing[0] if missing else max(ids)
        raise ConfigError(source, f"node ids must be dense in [0, {n}); problem at id {bad}")
    nodes = sorted(nodes, key=lambda nd: nd.node_id)
    for i, e in enumerate(edges):
        if not (0 <= e.src < n) or not (0 <= e.dst < n):
            why = "references a missing node"
        elif not 0 < e.length_m < math.inf:
            why = f"has non-positive or non-finite length {e.length_m}"
        elif not 0 < e.speed_mps < math.inf:
            why = f"has non-positive or non-finite speed {e.speed_mps}"
        elif not e.travel_time_s < math.inf:
            why = f"has non-finite travel time: length {e.length_m} m at speed {e.speed_mps} m/s"
        else:
            continue
        raise ConfigError(edges_source, f"edge {i} ({e.src}->{e.dst}) {why}")
    net = RoadNetwork(nodes=tuple(nodes), edges=tuple(edges), edges_source=edges_source)
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
            raise ConfigError(source, "graph is not strongly connected; node "
                              f"{np.argmax(cut_off)} is unreachable {label} node 0")


def grid_city(rows: int, cols: int, spacing: float, speed: float) -> RoadNetwork:
    """Manhattan grid of ``rows`` x ``cols`` nodes with bidirectional edges
    between 4-neighbours. Node (r, c) has id ``r * cols + c``; all edges have
    length ``spacing`` meters and the given free-flow speed."""
    source = f"grid_city({rows}x{cols})"
    if rows < 2 or cols < 2:
        raise ConfigError(source, "needs rows, cols >= 2")
    if spacing <= 0 or speed <= 0:
        raise ConfigError(source, "needs spacing > 0 and speed > 0")
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
    return _validate(nodes, edges, source, source)


def load_graph(nodes_path: str | Path, edges_path: str | Path) -> RoadNetwork:
    """Load and validate a network from its nodes and edges CSV files (the
    files ``save_graph`` writes)."""
    nodes_p, edges_p = Path(nodes_path), Path(edges_path)
    nodes = [Node(*row) for _, row in read_csv(nodes_p, NODES_HEADER, (integer, number, number))]
    edges = [Edge(*row) for _, row in
             read_csv(edges_p, EDGES_HEADER, (integer, integer, number, number))]
    return _validate(nodes, edges, str(nodes_p.parent), str(edges_p))


def save_graph(net: RoadNetwork, nodes_path: str | Path, edges_path: str | Path) -> None:
    """Write ``net``'s nodes and edges CSV files to the two paths."""
    write_csv(nodes_path, NODES_HEADER,
              ((nd.node_id, nd.x, nd.y) for nd in net.nodes), "\n")
    write_csv(edges_path, EDGES_HEADER,
              ((e.src, e.dst, e.length_m, e.speed_mps) for e in net.edges), "\n")


def build_skim(net: RoadNetwork) -> SkimMatrix:
    """All-pairs shortest paths under the lexicographic (time, distance) cost.

    One Dijkstra search over all sources gives the travel times. Per source,
    a second search over the edges that lie on a fastest path (``t[s, u] +
    et == t[s, v]``), weighted by length, gives the shortest of those paths.
    A sum of finite edge times or lengths can overflow: a path whose time or
    length is not finite is a ``ConfigError``.
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
    if not (tt.max() < np.inf and dist.max() < np.inf):     # NaN fails too
        u, v = np.argwhere(~(np.isfinite(tt) & np.isfinite(dist)))[0]
        raise ConfigError(net.edges_source or f"RoadNetwork({n} nodes)",
                          f"the fastest path from node {u} to node {v} "
                          f"takes {float(tt[u, v])} s over {float(dist[u, v])} m, not both finite")
    return SkimMatrix(travel_time=tt, distance=dist)
