"""Network, skim and graph I/O tests.

Skim results are checked against an independent brute-force oracle that
enumerates every simple path (feasible for graphs up to 8 nodes), against the
per-source heap Dijkstra the package used before its scipy search, and against
hand-computed values on grids and line graphs.
"""

import heapq
import itertools
import tracemalloc

import numpy as np
import pytest

from ridesim.errors import ConfigError
from ridesim.netgraph import (
    Edge,
    Node,
    RoadNetwork,
    build_skim,
    grid_city,
    load_graph,
    save_graph,
)


# ---------------------------------------------------------------- oracles

def oracle_skim(n, edges):
    """All-pairs (travel_time, distance) by enumerating every simple path.

    Costs accumulate left-to-right along each path, matching how any
    sequential shortest-path routine would sum them, so agreement is exact.
    Ties resolve to the smallest (time, distance) pair.
    """
    adj = [[] for _ in range(n)]
    for src, dst, length, speed in edges:
        adj[src].append((dst, length / speed, length))
    inf = float("inf")
    tt = [[inf] * n for _ in range(n)]
    dist = [[inf] * n for _ in range(n)]

    def walk(s, u, t, d, visited):
        if (t, d) < (tt[s][u], dist[s][u]):
            tt[s][u], dist[s][u] = t, d
        for v, et, el in adj[u]:
            if v not in visited:
                walk(s, v, t + et, d + el, visited | {v})

    for s in range(n):
        walk(s, s, 0.0, 0.0, {s})
    return tt, dist


def _dijkstra_lex(adj, n: int, source: int) -> tuple[list[float], list[float]]:
    inf = float("inf")
    best_t = [inf] * n
    best_d = [inf] * n
    best_t[source] = 0.0
    best_d[source] = 0.0
    heap: list[tuple[float, float, int]] = [(0.0, 0.0, source)]
    done = [False] * n
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        t, d, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, et, el in adj[u]:
            if done[v]:
                continue
            nt = t + et
            nd = d + el
            if nt < best_t[v] or (nt == best_t[v] and nd < best_d[v]):
                best_t[v] = nt
                best_d[v] = nd
                push(heap, (nt, nd, v))
    return best_t, best_d


def heap_skim(net):
    """All-pairs (travel_time, distance) from one lexicographic heap search
    per source, keyed on (time, distance, node)."""
    adj = [[] for _ in range(net.n)]
    for e in net.edges:
        adj[e.src].append((e.dst, e.travel_time_s, e.length_m))
    rows = [_dijkstra_lex(adj, net.n, s) for s in range(net.n)]
    return [t for t, _ in rows], [d for _, d in rows]


def reachable_from(n, directed_edges, start):
    """Breadth-first reachability; independent of the package's validator."""
    adj = [[] for _ in range(n)]
    for a, b in directed_edges:
        adj[a].append(b)
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [v for u in frontier for v in adj[u] if v not in seen]
        seen.update(frontier)
    return seen


def random_strongly_connected(rng, n):
    """Random graph on n nodes: a random Hamiltonian cycle guarantees strong
    connectivity, plus extra random edges. Weights drawn from small pools so
    shortest-path ties actually occur."""
    order = list(rng.permutation(n))
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    n_extra = int(rng.integers(0, n * (n - 1) - n + 1))
    while len(pairs) < n + n_extra:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((int(a), int(b)))
    lengths = [100.0, 200.0, 300.0, 400.0]
    speeds = [5.0, 10.0]
    return [
        (a, b, lengths[rng.integers(0, len(lengths))], speeds[rng.integers(0, len(speeds))])
        for a, b in sorted(pairs)
    ]


def make_net(n, edge_tuples):
    nodes = [Node(i, float(i), 0.0) for i in range(n)]
    edges = [Edge(a, b, ln, sp) for a, b, ln, sp in edge_tuples]
    return RoadNetwork(nodes=tuple(nodes), edges=tuple(edges))


# ---------------------------------------------------------------- grid_city

def test_grid_2x2_counts():
    net = grid_city(2, 2, 100.0, 10.0)
    assert net.n == 4
    assert len(net.edges) == 8


def test_grid_node_ids_follow_row_major_layout():
    net = grid_city(3, 4, 250.0, 5.0)
    for r in range(3):
        for c in range(4):
            nd = net.nodes[r * 4 + c]
            assert nd.node_id == r * 4 + c
            assert (nd.x, nd.y) == (c * 250.0, r * 250.0)


def test_grid_3x3_corner_to_corner():
    sk = build_skim(grid_city(3, 3, 100.0, 10.0))
    assert sk.travel_time[0, 8] == 40.0
    assert sk.distance[0, 8] == 400.0


@pytest.mark.parametrize("rows,cols", [(1, 5), (5, 1), (0, 3), (1, 1)])
def test_grid_dimension_error(rows, cols):
    with pytest.raises(ConfigError):
        grid_city(rows, cols, 100.0, 10.0)


@pytest.mark.parametrize("spacing,speed", [(0.0, 10.0), (100.0, -1.0)])
def test_grid_length_error(spacing, speed):
    with pytest.raises(ConfigError, match="spacing > 0 and speed > 0"):
        grid_city(3, 3, spacing, speed)


@pytest.mark.parametrize("spacing,speed", [(500.0, 10.0), (350.0, 7.0), (250.0, 8.0)])
def test_grid_skim_is_manhattan_exact(spacing, speed):
    rows, cols = 4, 5
    sk = build_skim(grid_city(rows, cols, spacing, speed))
    for a in range(rows * cols):
        ra, ca = divmod(a, cols)
        for b in range(rows * cols):
            rb, cb = divmod(b, cols)
            hops = abs(ra - rb) + abs(ca - cb)
            assert sk.travel_time[a, b] == hops * spacing / speed
            assert sk.distance[a, b] == hops * spacing


# ---------------------------------------------------------------- build_skim

def test_line_graph_hand_computed():
    net = make_net(3, [
        (0, 1, 100.0, 10.0), (1, 0, 100.0, 10.0),
        (1, 2, 200.0, 10.0), (2, 1, 200.0, 10.0),
    ])
    sk = build_skim(net)
    assert sk.travel_time[0, 2] == 30.0
    assert sk.distance[0, 2] == 300.0
    assert sk.travel_time[2, 0] == 30.0


def test_diagonal_exactly_zero():
    sk = build_skim(grid_city(4, 4, 130.0, 7.0))
    assert np.all(np.diag(sk.travel_time) == 0.0)
    assert np.all(np.diag(sk.distance) == 0.0)


def test_tie_breaks_to_smaller_distance():
    # both routes 0->1->3 and 0->2->3 take 40 s; the second is shorter
    net = make_net(4, [
        (0, 1, 200.0, 10.0), (1, 3, 200.0, 10.0),
        (0, 2, 100.0, 5.0), (2, 3, 100.0, 5.0),
        (3, 0, 100.0, 10.0),
    ])
    sk = build_skim(net)
    assert sk.travel_time[0, 3] == 40.0
    assert sk.distance[0, 3] == 200.0


def test_faster_longer_route_wins_on_time():
    net = make_net(3, [
        (0, 1, 100.0, 5.0),          # direct: 20 s, 100 m
        (0, 2, 100.0, 10.0), (2, 1, 50.0, 10.0),  # detour: 15 s, 150 m
        (1, 0, 100.0, 10.0),
    ])
    sk = build_skim(net)
    assert sk.travel_time[0, 1] == 15.0
    assert sk.distance[0, 1] == 150.0


def test_skim_matches_bruteforce_on_random_graphs():
    rng = np.random.default_rng(20240817)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        edges = random_strongly_connected(rng, n)
        sk = build_skim(make_net(n, edges))
        tt, dist = oracle_skim(n, edges)
        assert sk.travel_time.tolist() == tt
        assert sk.distance.tolist() == dist


def test_skim_matches_bruteforce_with_ragged_speeds():
    # edge times that are not exactly representable still agree bitwise,
    # because oracle and search accumulate along paths in the same order
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        edges = [
            (a, b, ln * 1.3, sp / 3.0)
            for a, b, ln, sp in random_strongly_connected(rng, n)
        ]
        sk = build_skim(make_net(n, edges))
        tt, dist = oracle_skim(n, edges)
        assert sk.travel_time.tolist() == tt
        assert sk.distance.tolist() == dist


def test_skim_matches_heap_search_on_benchmark_city():
    # the 30x30 city of the perfbench instant and batched workloads
    net = grid_city(30, 30, 500.0, 10.0)
    sk = build_skim(net)
    tt, dist = heap_skim(net)
    assert sk.travel_time.tolist() == tt
    assert sk.distance.tolist() == dist


def test_skim_matches_heap_search_with_parallel_edges():
    rng = np.random.default_rng(2011)
    for i in range(60):
        n = int(rng.integers(2, 40))
        edges = random_strongly_connected(rng, n)
        # repeat some edges with new weights: parallel edges
        for k in rng.integers(0, len(edges), size=int(rng.integers(1, n + 1))):
            a, b, _, _ = edges[k]
            edges.append((a, b, float(rng.choice([100.0, 200.0])), float(rng.choice([5.0, 10.0]))))
        if i % 2:
            edges = [(a, b, ln * float(rng.uniform(0.7, 1.3)), sp / 3.0)
                     for a, b, ln, sp in edges]
        net = make_net(n, edges)
        sk = build_skim(net)
        tt, dist = heap_skim(net)
        assert sk.travel_time.tolist() == tt
        assert sk.distance.tolist() == dist


def test_parallel_edges_hand_computed():
    # three roads 0->1: 10 s/100 m, 10 s/50 m and 30 s/300 m; summing them
    # would give 50 s, keeping the wrong 10 s road 100 m
    net = make_net(2, [
        (0, 1, 100.0, 10.0), (0, 1, 50.0, 5.0), (0, 1, 300.0, 10.0),
        (1, 0, 100.0, 10.0),
    ])
    sk = build_skim(net)
    assert sk.travel_time[0, 1] == 10.0
    assert sk.distance[0, 1] == 50.0


def test_skim_peak_memory_bounded():
    # two n x n result matrices plus per-source rows; an n x E temporary
    # would add about 3.9 * 8 n^2 on this grid
    net = grid_city(30, 30, 500.0, 10.0)
    tracemalloc.start()
    try:
        build_skim(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * net.n ** 2


def test_triangle_inequality_on_random_graph():
    rng = np.random.default_rng(99)
    edges = random_strongly_connected(rng, 8)
    sk = build_skim(make_net(8, edges))
    for a, b, c in itertools.product(range(8), repeat=3):
        assert sk.travel_time[a, c] <= sk.travel_time[a, b] + sk.travel_time[b, c]


def test_build_skim_is_deterministic():
    net = grid_city(5, 5, 210.0, 9.0)
    s1, s2 = build_skim(net), build_skim(net)
    assert np.array_equal(s1.travel_time, s2.travel_time)
    assert np.array_equal(s1.distance, s2.distance)


def test_skim_matrices_are_read_only():
    sk = build_skim(grid_city(2, 2, 100.0, 10.0))
    with pytest.raises(ValueError):
        sk.travel_time[0, 1] = 5.0
    with pytest.raises(ValueError):
        sk.distance[0, 1] = 5.0


# ---------------------------------------------------------------- validation

def test_two_node_graph_is_smallest_valid():
    net = make_net(2, [(0, 1, 50.0, 5.0), (1, 0, 50.0, 5.0)])
    assert net.n == 2


def test_dangling_edge_rejected(tmp_path):
    _write_graph(tmp_path, 3, [(0, 1), (1, 2), (2, 0), (1, 99)])
    with pytest.raises(ConfigError, match="99"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_unreachable_node_named(tmp_path):
    # node 3 has an outgoing edge but nothing points at it
    edges = [(0, 1), (1, 2), (2, 0), (3, 0)]
    assert 3 not in reachable_from(4, edges, 0)  # oracle agrees it is cut off
    _write_graph(tmp_path, 4, edges)
    with pytest.raises(ConfigError, match="node 3 is unreachable from node 0"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_sink_component_rejected(tmp_path):
    # node 3 is reachable but cannot get back
    edges = [(0, 1), (1, 2), (2, 0), (0, 3)]
    assert 0 not in reachable_from(4, edges, 3)
    _write_graph(tmp_path, 4, edges)
    with pytest.raises(ConfigError, match="node 3 is unreachable towards node 0"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_duplicate_node_id_rejected(tmp_path):
    nodes = "node_id,x,y\n0,0,0\n1,1,0\n1,2,0\n"
    edges = "from,to,length_m,speed_mps\n0,1,100,10\n1,0,100,10\n"
    (tmp_path / "nodes.csv").write_text(nodes)
    (tmp_path / "edges.csv").write_text(edges)
    with pytest.raises(ConfigError, match="duplicate"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_gapped_node_ids_rejected(tmp_path):
    nodes = "node_id,x,y\n0,0,0\n2,1,0\n"
    edges = "from,to,length_m,speed_mps\n0,2,100,10\n2,0,100,10\n"
    (tmp_path / "nodes.csv").write_text(nodes)
    (tmp_path / "edges.csv").write_text(edges)
    with pytest.raises(ConfigError, match="dense"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


@pytest.mark.parametrize("length,speed", [(0.0, 10.0), (-5.0, 10.0), (100.0, 0.0), (100.0, -1.0)])
def test_nonpositive_edge_attributes_rejected(tmp_path, length, speed):
    nodes = "node_id,x,y\n0,0,0\n1,1,0\n"
    edges = f"from,to,length_m,speed_mps\n0,1,{length},{speed}\n1,0,100,10\n"
    (tmp_path / "nodes.csv").write_text(nodes)
    (tmp_path / "edges.csv").write_text(edges)
    with pytest.raises(ConfigError):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_skim_path_that_overflows_rejected():
    # each edge's time and length are finite; two edges' length is not
    net = grid_city(3, 3, 1e308, 10.0)
    with pytest.raises(ConfigError, match=r"^the fastest path from node 0 to node 2 takes "
                       r"2e\+307 s over inf m, not both finite: grid_city\(3x3\)$"):
        build_skim(net)


def test_skim_overflow_names_a_network_built_without_a_source():
    # built directly, not by grid_city or load_graph: edges_source is ""
    net = make_net(3, [(0, 1, 1e308, 1e300), (1, 2, 1e308, 1e300),
                       (2, 1, 100.0, 10.0), (1, 0, 100.0, 10.0)])
    with pytest.raises(ConfigError, match=r"^the fastest path from node 0 to node 2 takes "
                       r"200000000.0 s over inf m, not both finite: RoadNetwork\(3 nodes\)$"):
        build_skim(net)


# ---------------------------------------------------------------- file I/O

def _write_graph(tmp_path, n, edge_pairs):
    nodes = "node_id,x,y\n" + "".join(f"{i},{i},0\n" for i in range(n))
    edges = "from,to,length_m,speed_mps\n" + "".join(
        f"{a},{b},100,10\n" for a, b in edge_pairs
    )
    (tmp_path / "nodes.csv").write_text(nodes)
    (tmp_path / "edges.csv").write_text(edges)


def test_load_graph_from_explicit_paths(tmp_path):
    _write_graph(tmp_path, 2, [(0, 1), (1, 0)])
    net = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
    assert net.n == 2
    assert net.edges[0].length_m == 100.0


def test_save_load_roundtrip(tmp_path):
    net = grid_city(3, 4, 275.5, 8.0)
    save_graph(net, tmp_path / "nodes.csv", tmp_path / "edges.csv")
    again = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
    assert again == net
    assert np.array_equal(build_skim(again).travel_time, build_skim(net).travel_time)


def test_missing_file_reported(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_bad_header_reported(tmp_path):
    (tmp_path / "nodes.csv").write_text("id,x,y\n0,0,0\n")
    (tmp_path / "edges.csv").write_text("from,to,length_m,speed_mps\n")
    with pytest.raises(ConfigError, match="header"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_short_row_reported(tmp_path):
    (tmp_path / "nodes.csv").write_text("node_id,x,y\n0,0\n")
    (tmp_path / "edges.csv").write_text("from,to,length_m,speed_mps\n")
    with pytest.raises(ConfigError, match="row 2"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_unparseable_cell_reported(tmp_path):
    (tmp_path / "nodes.csv").write_text("node_id,x,y\n0,0,0\n1,east,0\n")
    (tmp_path / "edges.csv").write_text("from,to,length_m,speed_mps\n")
    with pytest.raises(ConfigError, match="row 3"):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")


def test_fractional_node_id_reported(tmp_path):
    (tmp_path / "nodes.csv").write_text("node_id,x,y\n0.5,0,0\n")
    (tmp_path / "edges.csv").write_text("from,to,length_m,speed_mps\n")
    with pytest.raises(ConfigError):
        load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
