"""Matching, offer and settlement tests.

match_instant is checked against a brute-force argmin; match_batch against
exhaustive enumeration of every maximum-size assignment, including the
lexicographic tie-break, and against the re-solve reconstruction it replaced
(one assignment solve per candidate pair). Enumeration instances use integer
costs so equality is exact.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ridesim import platforms
from ridesim.decisions import build_decision_set
from ridesim.engine import run_day
from ridesim.netgraph import SkimMatrix, build_skim, grid_city
from ridesim.platforms import (
    match_batch,
    match_instant,
    make_offer,
    next_batch_boundary,
    settle,
)
from ridesim.scenario import PlatformSpec, Request, materialize, parse_config


# ---------------------------------------------------------------- oracles

def brute_force_instant(request, idle, positions, skim, excluded=frozenset()):
    candidates = [
        (skim.travel_time[positions[d], request.origin], d)
        for d in idle if d not in excluded
    ]
    return min(candidates)[1] if candidates else None


def enumerate_batch(req_ids, drv_ids, cost):
    """All maximum-size assignments by enumeration; returns the lexicographically
    smallest pair list among those of minimal total cost."""
    nr, nd = len(req_ids), len(drv_ids)
    best_cost, best_pairs = None, None
    if nr <= nd:
        for perm in itertools.permutations(range(nd), nr):
            total = sum(cost[i][perm[i]] for i in range(nr))
            pairs = tuple((req_ids[i], drv_ids[perm[i]]) for i in range(nr))
            key = (total, pairs)
            if best_cost is None or key < (best_cost, best_pairs):
                best_cost, best_pairs = total, pairs
    else:
        for chosen in itertools.permutations(range(nr), nd):
            total = sum(cost[chosen[j]][j] for j in range(nd))
            pairs = tuple(sorted((req_ids[chosen[j]], drv_ids[j]) for j in range(nd)))
            key = (total, pairs)
            if best_cost is None or key < (best_cost, best_pairs):
                best_cost, best_pairs = total, pairs
    return best_cost, best_pairs


def skim_from_cost(req_ids, drv_ids, cost):
    """Embed an explicit request x driver cost matrix into a skim: driver j
    sits at node j, request i originates at node len(drv_ids) + i."""
    nd, nr = len(drv_ids), len(req_ids)
    n = nd + nr
    tt = np.zeros((n, n))
    for i in range(nr):
        for j in range(nd):
            tt[j, nd + i] = cost[i][j]
    skim = SkimMatrix(travel_time=tt, distance=np.zeros((n, n)))
    requests = [Request(rid, rid, nd + i, 0, 0.0) for i, rid in enumerate(req_ids)]
    positions = {d: j for j, d in enumerate(drv_ids)}
    return skim, requests, positions


def reference_match_batch(
    requests: list,
    idle,
    positions,
    skim: SkimMatrix,
) -> tuple:
    """Minimum-total-pickup-time assignment of min(|requests|, |idle|) pairs.

    Among all minimum-cost maximum-size assignments, returns the
    (request_id, driver_id) pairs of the one whose pair list is
    lexicographically smallest: requests are fixed in ascending id order,
    each to the smallest driver id that keeps the optimal total attainable.
    """
    req_ids = sorted(r.request_id for r in requests)
    by_id = {r.request_id: r for r in requests}
    drv_ids = sorted(idle)
    if not req_ids or not drv_ids:
        return ()
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
    assert unmatched(pairs, req_ids, drv_ids) == (
        [req_ids[i] for i in sorted(dropped + open_req)], [drv_ids[j] for j in open_drv])
    return tuple(pairs)


def unmatched(pairs, req_ids, drv_ids) -> tuple[list, list]:
    """The request ids and driver ids that no pair names, ascending."""
    return (sorted(set(req_ids) - {r for r, _ in pairs}),
            sorted(set(drv_ids) - {d for _, d in pairs}))


def _lap_cost(cost: np.ndarray) -> float:
    if cost.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _close(a: float, b: float) -> bool:
    # float travel-time sums may associate differently between the full and
    # the fixed-plus-remainder solve; integer-valued costs stay exact
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------ match_instant

def make_request(origin):
    return Request(request_id=0, traveller_id=0, origin=origin, destination=1, t_request=0.0)


def test_instant_prefers_closer_driver():
    skim = build_skim(grid_city(3, 3, 100.0, 10.0))
    # driver 1 at node 4 is one hop from origin 5; driver 0 at node 0 is three
    assert match_instant(make_request(5), {0, 1}, {0: 0, 1: 4}, skim) == 1


def test_instant_empty_idle_set():
    skim = build_skim(grid_city(2, 2, 100.0, 10.0))
    assert match_instant(make_request(0), set(), {}, skim) is None


def test_instant_tie_breaks_to_lowest_id():
    skim = build_skim(grid_city(3, 3, 100.0, 10.0))
    assert match_instant(make_request(4), {7, 3}, {7: 1, 3: 5}, skim) == 3


def test_instant_respects_exclusions():
    skim = build_skim(grid_city(3, 3, 100.0, 10.0))
    got = match_instant(make_request(4), {3, 7}, {7: 1, 3: 5}, skim,
                        excluded=frozenset({3}))
    assert got == 7
    got = match_instant(make_request(4), {3}, {3: 5}, skim, excluded=frozenset({3}))
    assert got is None


def test_instant_matches_brute_force_on_random_instances():
    skim = build_skim(grid_city(6, 6, 100.0, 10.0))
    rng = np.random.default_rng(404)
    for _ in range(300):
        n_drivers = int(rng.integers(1, 51))
        ids = rng.choice(1000, size=n_drivers, replace=False)
        positions = {int(d): int(rng.integers(0, 36)) for d in ids}
        idle = set(positions)
        request = make_request(int(rng.integers(0, 36)))
        excluded = frozenset(
            int(d) for d in ids if rng.random() < 0.2
        )
        assert match_instant(request, idle, positions, skim, excluded) == \
            brute_force_instant(request, idle, positions, skim, excluded)


# -------------------------------------------------------------- match_batch

def test_batch_two_by_two_example():
    skim, requests, positions = skim_from_cost([0, 1], [0, 1], [[10, 20], [20, 10]])
    got = match_batch(requests, {0, 1}, positions, skim)
    assert got.pairs == ((0, 0), (1, 1))
    assert unmatched(got.pairs, [0, 1], [0, 1]) == ([], [])


def test_batch_single_request_reduces_to_instant():
    skim = build_skim(grid_city(4, 4, 100.0, 10.0))
    request = make_request(9)
    positions = {2: 0, 5: 10, 8: 9}
    got = match_batch([request], {2, 5, 8}, positions, skim)
    want = match_instant(request, {2, 5, 8}, positions, skim)
    assert got.pairs == ((0, want),)
    assert unmatched(got.pairs, [0], [2, 5, 8]) == ([], sorted({2, 5, 8} - {want}))


def test_batch_empty_requests():
    skim = build_skim(grid_city(2, 2, 100.0, 10.0))
    got = match_batch([], {4, 2}, {4: 0, 2: 1}, skim)
    assert got.pairs == ()
    assert unmatched(got.pairs, [], [4, 2]) == ([], [2, 4])


def test_batch_empty_drivers():
    skim = build_skim(grid_city(2, 2, 100.0, 10.0))
    got = match_batch([make_request(0)], set(), {}, skim)
    assert got.pairs == ()
    assert unmatched(got.pairs, [0], []) == ([0], [])


def test_batch_matches_enumeration_square_and_rectangular():
    rng = np.random.default_rng(11)
    for _ in range(200):
        nr = int(rng.integers(1, 7))
        nd = int(rng.integers(1, 7))
        req_ids = sorted(int(x) for x in rng.choice(100, size=nr, replace=False))
        drv_ids = sorted(int(x) for x in rng.choice(100, size=nd, replace=False))
        cost = [[int(rng.integers(0, 8)) for _ in range(nd)] for _ in range(nr)]
        skim, requests, positions = skim_from_cost(req_ids, drv_ids, cost)
        got = match_batch(requests, set(drv_ids), positions, skim)
        want_cost, want_pairs = enumerate_batch(req_ids, drv_ids, cost)
        got_cost = sum(
            cost[req_ids.index(r)][drv_ids.index(d)] for r, d in got.pairs
        )
        assert got_cost == want_cost
        assert got.pairs == want_pairs
        assert len(got.pairs) == min(nr, nd)
        # every pair names an input request and driver, each at most once
        left_r, left_d = unmatched(got.pairs, req_ids, drv_ids)
        assert len(left_r) == nr - len(got.pairs)
        assert len(left_d) == nd - len(got.pairs)


def random_ids(rng, n):
    return sorted(int(x) for x in rng.choice(1000, size=n, replace=False))


def assert_matches_reference(requests, drv_ids, positions, skim):
    got = match_batch(requests, set(drv_ids), positions, skim)
    want = reference_match_batch(requests, set(drv_ids), positions, skim)
    assert got.pairs == want


def test_batch_matches_reference_on_tie_heavy_instances():
    rng = np.random.default_rng(808)
    for k in range(600):
        nr = int(rng.integers(1, 9))
        nd = int(rng.integers(1, 9))
        req_ids, drv_ids = random_ids(rng, nr), random_ids(rng, nd)
        cost = rng.integers(0, 4, size=(nr, nd)).astype(float)
        if k % 2:
            cost *= 0.37
        skim, requests, positions = skim_from_cost(req_ids, drv_ids, cost.tolist())
        assert_matches_reference(requests, drv_ids, positions, skim)


def test_batch_matches_reference_on_float_instances():
    rng = np.random.default_rng(809)
    for _ in range(200):
        nr = int(rng.integers(1, 31))
        nd = int(rng.integers(1, 31))
        req_ids, drv_ids = random_ids(rng, nr), random_ids(rng, nd)
        cost = rng.uniform(0.0, 600.0, size=(nr, nd))
        skim, requests, positions = skim_from_cost(req_ids, drv_ids, cost.tolist())
        assert_matches_reference(requests, drv_ids, positions, skim)


@pytest.fixture(scope="module")
def city_skim():
    return build_skim(grid_city(30, 30, 500.0, 10.0))


@pytest.mark.parametrize("nr,nd", [(38, 9), (72, 14), (72, 340), (340, 20)])
def test_batch_matches_reference_on_city_skim(city_skim, nr, nd):
    # grid travel times are whole multiples of one block, so ties are common;
    # both surplus directions occur
    n_nodes = city_skim.travel_time.shape[0]
    rng = np.random.default_rng(nr * 1000 + nd)
    for _ in range(2):
        req_ids, drv_ids = random_ids(rng, nr), random_ids(rng, nd)
        requests = [Request(r, r, int(rng.integers(0, n_nodes)), 0, 0.0)
                    for r in req_ids]
        positions = {d: int(rng.integers(0, n_nodes)) for d in drv_ids}
        assert_matches_reference(requests, drv_ids, positions, city_skim)


def test_batched_run_solves_once_per_batch(monkeypatch):
    counts = {"solve": 0, "batch": 0}
    solve, batch = platforms.linear_sum_assignment, platforms.match_batch

    def counted_solve(cost):
        counts["solve"] += 1
        return solve(cost)

    def counted_batch(*args):
        counts["batch"] += 1
        return batch(*args)

    monkeypatch.setattr(platforms, "linear_sum_assignment", counted_solve)
    monkeypatch.setattr(platforms, "match_batch", counted_batch)
    config = parse_config({
        "horizon_s": 3600, "n_travellers": 150, "n_drivers": 8, "seed": 3,
        "graph": {"grid": {"rows": 5, "cols": 5, "spacing_m": 500, "speed_mps": 10}},
        "platforms": [{"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
                       "commission_rate": 0.0,
                       "matching": {"batched": {"window_s": 60.0}}}],
    })
    run_day(config, materialize(config),
            build_decision_set(config.decisions, config.behaviour))
    assert counts["batch"] > 10
    assert counts["solve"] == counts["batch"]


def test_batch_no_duplicate_sides():
    rng = np.random.default_rng(3)
    cost = [[int(rng.integers(0, 4)) for _ in range(5)] for _ in range(5)]
    skim, requests, positions = skim_from_cost(list(range(5)), list(range(5)), cost)
    got = match_batch(requests, set(range(5)), positions, skim)
    rs = [r for r, _ in got.pairs]
    ds = [d for _, d in got.pairs]
    assert len(set(rs)) == len(rs) and len(set(ds)) == len(ds)


# ---------------------------------------------------------------- offers

def offer_spec(base, per_km, commission=0.0):
    return PlatformSpec(platform_id=0, base_fare=base, fare_per_km=per_km,
                        commission_rate=commission, matching="instant")


def test_offer_fare_per_km():
    tt = np.zeros((2, 2))
    dist = np.array([[0.0, 5000.0], [5000.0, 0.0]])
    skim = SkimMatrix(travel_time=tt, distance=dist)
    req = Request(0, 0, 0, 1, 0.0)
    offer = make_offer(offer_spec(0.0, 1.0), req, driver_id=4, position=1, skim=skim)
    assert offer.fare == 5.0
    assert offer.trip_distance == 5000.0


def test_offer_zero_distance_is_base_fare():
    skim = SkimMatrix(travel_time=np.zeros((2, 2)), distance=np.zeros((2, 2)))
    req = Request(0, 0, 1, 1, 0.0)  # same-node trip built directly for the contract
    offer = make_offer(offer_spec(2.0, 3.0), req, driver_id=0, position=0, skim=skim)
    assert offer.fare == 2.0


def test_offer_higher_rate():
    tt = np.zeros((2, 2))
    dist = np.array([[0.0, 2000.0], [2000.0, 0.0]])
    skim = SkimMatrix(travel_time=tt, distance=dist)
    req = Request(0, 0, 0, 1, 0.0)
    offer = make_offer(offer_spec(0.0, 1.5), req, driver_id=0, position=0, skim=skim)
    assert offer.fare == 3.0


def test_offer_eta_and_trip_time_from_skim():
    skim = build_skim(grid_city(3, 3, 100.0, 10.0))
    req = Request(5, 5, 4, 8, 0.0)
    offer = make_offer(offer_spec(0.0, 1.0), req, driver_id=2, position=0, skim=skim)
    assert offer.pickup_eta == skim.travel_time[0, 4]
    assert offer.trip_time == skim.travel_time[4, 8]


# ------------------------------------------------------------- settlement

def test_settle_splits_fare():
    assert settle(offer_spec(0.0, 1.0, commission=0.25), 10.0) == (7.5, 2.5)


def test_settle_zero_and_full_commission():
    assert settle(offer_spec(0.0, 1.0, commission=0.0), 8.0) == (8.0, 0.0)
    assert settle(offer_spec(0.0, 1.0, commission=1.0), 8.0) == (0.0, 8.0)


def test_settle_conserves_money():
    rng = np.random.default_rng(21)
    spec = offer_spec(0.0, 1.0, commission=0.37)
    for _ in range(500):
        fare = float(rng.uniform(0.0, 30.0))
        payout, cut = settle(spec, fare)
        assert abs(payout + cut - fare) < 1e-12


def test_next_batch_boundary():
    assert next_batch_boundary(60.0, 10.0) == 60.0
    assert next_batch_boundary(60.0, 60.0) == 60.0
    assert next_batch_boundary(60.0, 60.0001) == 120.0
    assert next_batch_boundary(60.0, 0.0) == 0.0


def test_next_batch_boundary_properties():
    rng = np.random.default_rng(5)
    for _ in range(500):
        window = float(rng.uniform(0.001, 600.0))
        now = float(rng.uniform(0.0, 20000.0))
        b = next_batch_boundary(window, now)
        k = round(b / window)
        assert b == k * window
        assert b >= now
        assert (k - 1) * window < now


def test_next_batch_boundary_at_smallest_accepted_window():
    # parse_config accepts window_s down to horizon_s / 2**40
    rng = np.random.default_rng(17)
    for horizon in (1.0, 3600.0, 86400.0, 1e7):
        window = horizon / 2 ** 40
        for _ in range(200):
            now = float(rng.uniform(0.0, horizon))
            b = next_batch_boundary(window, now)
            k = round(b / window)
            assert b == k * window
            assert b >= now
            assert (k - 1) * window < now
