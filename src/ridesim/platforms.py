"""Platform-side state: idle drivers, matching, offers and settlement.

Matching comes in two modes. Instant mode pairs each waiting request with the
closest idle driver the moment either side of the queue changes. Batched mode
accumulates requests and solves one minimum-cost bipartite assignment per
window boundary: a single ``linear_sum_assignment`` call, after which the
tie rule among optimal assignments is applied on the edges its dual marks
tight, without another solve.
"""

from dataclasses import dataclass, field
from typing import AbstractSet, Mapping, NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from ridesim.netgraph import SkimMatrix
from ridesim.scenario import PlatformSpec, Request


class Offer(NamedTuple):
    platform_id: int
    driver_id: int
    request_id: int
    pickup_eta: float
    trip_time: float
    trip_distance: float
    fare: float


@dataclass(frozen=True)
class Assignment:
    """A batch's (request_id, driver_id) pairs; the unmatched requests and
    drivers are the ones not named in them."""

    pairs: tuple[tuple[int, int], ...]


@dataclass
class PlatformState:
    """Mutable per-run state for one platform. Requests wait on one queue
    that the engine keeps for all platforms. ``idle`` maps each idle driver
    to the node where it waits; idle drivers do not move."""

    spec: PlatformSpec
    idle: dict = field(default_factory=dict)
    next_batch_at: float | None = None


def match_instant(
    request: Request,
    idle: AbstractSet,
    positions: Mapping,
    skim: SkimMatrix,
    excluded: frozenset = frozenset(),
) -> int | None:
    """Closest idle driver by pickup travel time; ties by lowest driver id.

    ``excluded`` holds driver ids barred for this request (they already
    declined it in the current matching pass).
    """
    pickup_tt = skim.travel_time[:, request.origin]
    best = None
    best_tt = None
    for d in idle:
        if d in excluded:
            continue
        tt = pickup_tt[positions[d]]
        if best is None or tt < best_tt or (tt == best_tt and d < best):
            best, best_tt = d, tt
    return best


def match_batch(
    requests: list,
    idle: AbstractSet,
    positions: Mapping,
    skim: SkimMatrix,
) -> Assignment:
    """Minimum-total-pickup-time assignment of min(|requests|, |idle|) pairs.

    Among all minimum-cost maximum-size assignments, returns the one whose
    (request_id, driver_id) pair list is lexicographically smallest: requests
    are fixed in ascending id order, each to the smallest driver id that
    keeps the optimal total attainable; a request stays unmatched only when
    no driver can keep it.

    One ``linear_sum_assignment`` solve gives an optimal assignment. Dual
    potentials read off it mark the tight edges and the nodes every optimal
    assignment covers (:func:`_optimal_support`), and the tie rule is then
    applied on the tight edges by alternating-path search (:func:`_reroute`),
    with no second solve.
    """
    req_ids = sorted(r.request_id for r in requests)
    drv_ids = sorted(idle)
    if not req_ids or not drv_ids:
        return Assignment(pairs=())
    by_id = {r.request_id: r for r in requests}
    origins = [by_id[r].origin for r in req_ids]
    nodes = np.array([positions[d] for d in drv_ids])
    cost = skim.travel_time[nodes[:, None], origins].T      # rows: requests
    col_of, tight, required = _optimal_support(cost)
    nr, nd = cost.shape
    row_of = [-1] * nd
    for i, j in enumerate(col_of):
        if j >= 0:
            row_of[j] = i
    adj = [[] for _ in range(nr)]          # tight drivers per request, ascending
    rows, cols = np.nonzero(tight)
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj[i].append(j)
    if nr > nd:
        # surplus requests: those not every optimum covers may go unmatched
        may_drop = (~required).tolist()
        may_free = [False] * nd
    else:
        may_drop = [False] * nr
        may_free = (~required).tolist()
    for i in range(nr):
        # a request that no tight driver can take keeps its current state,
        # which is then unmatched: dropping is the last option
        old = col_of[i]
        for j in adj[i]:
            if j == old:
                break
            if 0 <= row_of[j] < i:
                continue                    # held by an already fixed request
            if _reroute(i, j, col_of, row_of, adj, may_drop, may_free):
                break
    return Assignment(
        pairs=tuple((req_ids[i], drv_ids[j]) for i, j in enumerate(col_of) if j >= 0))


def _optimal_support(cost: np.ndarray) -> tuple:
    """One assignment solve and the dual read off it.

    Returns ``(col_of, tight, required)``: an optimal assignment as a list
    mapping each row to its column (-1 when unmatched), the boolean matrix
    of edges with zero reduced cost (within 1e-9 of the total absolute
    cost), and a boolean vector over the larger side marking the nodes every
    optimal assignment covers. By complementary slackness an assignment of
    min(rows, cols) pairs is optimal iff it uses tight edges only and covers
    every required node.

    The smaller side S is fully matched by M; the larger side L carries
    potentials ``v <= 0``. On the matched L-nodes, ``v`` is the shortest
    distance over edges M(a) -> M(b) of weight C[a, M(b)] - C[a, M(a)] with
    every node starting at 0 (min-plus Bellman-Ford; M optimal means no
    negative cycle); one more relaxation gives the unmatched L-nodes, and
    ``u_a = C[a, M(a)] - v[M(a)]``.
    """
    rows, cols = linear_sum_assignment(cost)
    flip = cost.shape[0] > cost.shape[1]
    a = cost.T if flip else cost
    k = a.shape[0]
    match = np.empty(k, dtype=np.intp)
    if flip:
        match[cols] = rows
    else:
        match[rows] = cols
    a_m = a[np.arange(k), match]
    step = a[:, match] - a_m[:, None]
    dist = np.zeros(k)
    for _ in range(k + 1):
        relaxed = (dist[:, None] + step).min(axis=0)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    v = np.minimum(0.0, (dist[:, None] + a - a_m[:, None]).min(axis=0))
    u = a_m - v[match]
    tol = 1e-9 * max(1.0, float(np.abs(cost).sum()))
    tight = a - u[:, None] - v <= tol
    col_of = [-1] * cost.shape[0]
    for r, c in zip(rows.tolist(), cols.tolist()):
        col_of[r] = c
    return col_of, (tight.T if flip else tight), v < -tol


def _reroute(i, target, col_of, row_of, adj, may_drop, may_free) -> bool:
    """Move row ``i`` to column ``target`` and repair the assignment along
    one alternating path of tight edges, leaving rows before ``i`` as they
    are. Returns False, changing nothing, when no such path exists.

    Free columns and unmatched rows stand in for dummy nodes of a square
    problem, modelled by one implicit node each: a dummy row owns every free
    column and may take any column in ``may_free``; a dummy column is owned
    by every unmatched row and may be taken by any row in ``may_drop``.
    The search ends when some row takes the slot ``i`` left.
    """
    dummy = len(col_of)                  # key of the implicit dummy row
    old = col_of[i]
    parent = {}                          # displaced row -> (row that took its slot, slot)
    queue = []

    def displace(by, col):
        if col < 0:
            owners = [q for q in range(i + 1, len(col_of)) if col_of[q] < 0]
        else:
            o = row_of[col]
            owners = [dummy if o < 0 else o]
            if owners[0] in parent or 0 <= o < i:
                return
        for q in owners:
            parent[q] = (by, col)
            queue.append(q)

    displace(i, target)
    dropped_done = False
    for x in queue:
        if x == dummy:
            options = [j for j, free in enumerate(may_free) if free]
        else:
            options = adj[x] + ([-1] if may_drop[x] else [])
        for y in options:
            if y == old:
                _apply(x, y, i, parent, col_of, row_of, dummy)
                return True
            if y < 0:
                if dropped_done:
                    continue
                dropped_done = True
            displace(x, y)
    return False


def _apply(x, y, i, parent, col_of, row_of, dummy) -> None:
    """Enact the alternating path that ends with row ``x`` taking ``y``."""
    while True:
        if x != dummy:
            col_of[x] = y
        if y >= 0:
            row_of[y] = -1 if x == dummy else x
        if x == i:
            return
        x, y = parent[x]


def make_offer(
    platform: PlatformSpec,
    request: Request,
    driver_id: int,
    position: int,
    skim: SkimMatrix,
) -> Offer:
    trip_distance = float(skim.distance[request.origin, request.destination])
    return Offer(
        platform_id=platform.platform_id,
        driver_id=driver_id,
        request_id=request.request_id,
        pickup_eta=float(skim.travel_time[position, request.origin]),
        trip_time=float(skim.travel_time[request.origin, request.destination]),
        trip_distance=trip_distance,
        fare=platform.fare_for(trip_distance),
    )


def settle(platform: PlatformSpec, fare: float) -> tuple[float, float]:
    """Split a collected fare into (driver_payout, platform_cut).

    The cut is fare times commission rate; the payout is the remainder, so
    payout + cut reproduces the fare up to one rounding step.
    """
    cut = fare * platform.commission_rate
    return fare - cut, cut


def next_batch_boundary(window_s: float, now: float) -> float:
    """Smallest multiple of the window that is >= now."""
    k = int(np.ceil(now / window_s))
    while k * window_s < now:
        k += 1
    while k > 0 and (k - 1) * window_s >= now:
        k -= 1
    return k * window_s
