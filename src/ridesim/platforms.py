"""Platform-side state: idle drivers, matching, offers and settlement.

Matching comes in two modes. Instant mode pairs each waiting request with the
closest idle driver the moment either side of the queue changes. Batched mode
accumulates requests and solves one minimum-cost bipartite assignment per
window boundary.
"""

from dataclasses import dataclass, field
from typing import AbstractSet, Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

from ridesim.netgraph import SkimMatrix
from ridesim.scenario import PlatformSpec, Request


@dataclass(frozen=True)
class Offer:
    platform_id: int
    driver_id: int
    request_id: int
    pickup_eta: float
    trip_time: float
    trip_distance: float
    fare: float


@dataclass(frozen=True)
class Assignment:
    pairs: tuple[tuple[int, int], ...]          # (request_id, driver_id)
    unmatched_requests: tuple[int, ...]
    unmatched_drivers: tuple[int, ...]


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
    keeps the optimal total attainable.
    """
    req_ids = sorted(r.request_id for r in requests)
    by_id = {r.request_id: r for r in requests}
    drv_ids = sorted(idle)
    if not req_ids or not drv_ids:
        return Assignment(
            pairs=(), unmatched_requests=tuple(req_ids), unmatched_drivers=tuple(drv_ids)
        )
    cost = np.array([
        [skim.travel_time[positions[d], by_id[r].origin] for d in drv_ids]
        for r in req_ids
    ])
    target = _lap_cost(cost)
    pairs = []
    dropped = []
    open_req = list(range(len(req_ids)))
    open_drv = list(range(len(drv_ids)))
    fixed_cost = 0.0
    n_pairs = min(len(req_ids), len(drv_ids))
    while len(pairs) < n_pairs:
        ri = open_req[0]
        rest_req = open_req[1:]
        chosen = None
        for dj in open_drv:
            rest_drv = [d for d in open_drv if d != dj]
            trial = fixed_cost + cost[ri, dj] + _lap_cost(cost[np.ix_(rest_req, rest_drv)])
            if _close(trial, target):
                chosen = dj
                break
        if chosen is None:
            # only possible with surplus requests: this one stays unmatched
            if _close(fixed_cost + _lap_cost(cost[np.ix_(rest_req, open_drv)]), target):
                dropped.append(ri)
                open_req = rest_req
                continue
            raise AssertionError("optimal assignment reconstruction failed")
        pairs.append((req_ids[ri], drv_ids[chosen]))
        fixed_cost += cost[ri, chosen]
        open_req = rest_req
        open_drv = [d for d in open_drv if d != chosen]
    return Assignment(
        pairs=tuple(pairs),
        unmatched_requests=tuple(req_ids[i] for i in sorted(dropped + open_req)),
        unmatched_drivers=tuple(drv_ids[j] for j in open_drv),
    )


def _lap_cost(cost: np.ndarray) -> float:
    if cost.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _close(a: float, b: float) -> bool:
    # float travel-time sums may associate differently between the full and
    # the fixed-plus-remainder solve; integer-valued costs stay exact
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


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
