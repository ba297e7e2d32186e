"""Acceptance gate. Each test checks one release criterion end to end and
prints a single PASS/FAIL verdict line (visible even under pytest capture).

The suite covers: byte-level determinism of the CLI, independent oracles for
both matchers and the shortest-path skim, conservation laws on simulated
logs, the demand/supply waiting-time trends, learning-dynamics shape, the
performance envelope, the two-platform competition mechanism, and a
randomized property sweep of at least 1000 cases.
"""

import itertools
import json
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from ridesim import kpi, presets
from ridesim.cli import main
from ridesim.decisions import (
    DriverDeclineCtx,
    DriverOutCtx,
    DriverReposCtx,
    PlatformChoiceCtx,
    TravModeCtx,
    TravOutCtx,
    build_decision_set,
    decline_far_pickup,
    default_driver_out,
    default_platform_choice,
    default_trav_mode,
    opt_out_if_unserved,
    repos_to_demand,
)
from ridesim.engine import run_day
from ridesim.netgraph import Edge, Node, RoadNetwork, build_skim, grid_city
from ridesim.platforms import Offer, match_batch, match_instant
from ridesim.scenario import (
    Request,
    generate_demand,
    generate_supply,
    materialize,
    parse_config,
)
from ridesim.experiments import (
    LearningParams,
    day_to_day,
    parse_plan,
    run_grid,
)

_NETWORKS = {}      # graph spec -> (net, skim), shared across tests


def verdict(capsys, n, ok, text):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def shared_inputs(config):
    if config.graph not in _NETWORKS:
        net = config.graph.build()
        _NETWORKS[config.graph] = net, build_skim(net)
    net, skim = _NETWORKS[config.graph]
    return materialize(config, net=net, skim=skim)


def run_config(raw):
    config = parse_config(raw)
    inputs = shared_inputs(config)
    decisions = build_decision_set(config.decisions, config.behaviour)
    result = run_day(config, inputs, decisions)
    kpi.validate_log(result.log)
    return config, inputs, result


def rho(x, y):
    return spearmanr(x, y)[0]


# ------------------------------------------------------ 1: determinism

def rich_raw():
    # exercises both matchers, service noise and every shipped module
    return {
        "horizon_s": 3600,
        "n_travellers": 80,
        "n_drivers": 10,
        "seed": 17,
        "platforms": [
            {"platform_id": 0, "base_fare": 0.5, "fare_per_km": 1.2,
             "commission_rate": 0.2, "matching": "instant"},
            {"platform_id": 1, "base_fare": 0.0, "fare_per_km": 0.9,
             "commission_rate": 0.1,
             "matching": {"batched": {"window_s": 30}}},
        ],
        "graph": {"grid": {"rows": 6, "cols": 6, "spacing_m": 300,
                           "speed_mps": 10}},
        "behaviour": {"t_board_s": 10, "t_alight_s": 5,
                      "service_variability": 0.2, "max_wait_s": 900,
                      "decline_eta_s": 800},
        "decisions": {"f_trav_mode": "max_wait",
                      "f_driver_decline": "decline_far_pickup",
                      "f_driver_repos": "repos_to_demand"},
    }


def test_c1_byte_identical_reruns(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(rich_raw()))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()
                     if p.name != "manifest.json"})
    same_run = outs[0] == outs[1]

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "base": rich_raw(), "grid": {"n_drivers": [8, 12]},
        "replications": 3, "base_seed": 60,
    }))
    results = []
    for threads, sub in (("1", "t1"), ("8", "t8")):
        out = tmp_path / sub
        assert main(["experiment", "--plan", str(plan_path), "--out", str(out),
                     "--threads", threads]) == 0
        results.append((out / "experiment_results.csv").read_bytes())
    same_exp = results[0] == results[1]

    elapsed = time.perf_counter() - t0
    verdict(capsys, 1, same_run and same_exp and elapsed < 60,
            f"reruns byte-identical={same_run}, threads 1 vs 8 "
            f"identical={same_exp} ({elapsed:.1f}s)")


# -------------------------------------------------- 2: matching oracles

def test_c2_matching_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    nets = []
    for _ in range(12):
        net = grid_city(int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                        100.0 * int(rng.integers(1, 5)), 10.0)
        nets.append((net, build_skim(net)))

    instant_ok = 0
    for _ in range(1000):
        net, skim = nets[rng.integers(0, len(nets))]
        n_drv = int(rng.integers(1, 51))
        idle = set(range(n_drv))
        positions = {d: int(rng.integers(0, net.n)) for d in idle}
        request = Request(0, 0, int(rng.integers(0, net.n)),
                          int(rng.integers(0, net.n)), 0.0)
        excluded = frozenset(
            int(d) for d in rng.choice(n_drv, rng.integers(0, n_drv + 1),
                                       replace=False))
        got = match_instant(request, idle, positions, skim, excluded)
        candidates = [(skim.travel_time[positions[d], request.origin], d)
                      for d in idle if d not in excluded]
        want = min(candidates)[1] if candidates else None
        instant_ok += got == want

    batch_ok = 0
    for _ in range(500):
        net, skim = nets[rng.integers(0, len(nets))]
        n_req = int(rng.integers(1, 7))
        n_drv = int(rng.integers(1, 7))
        requests = [Request(i, i, int(rng.integers(0, net.n)),
                            int(rng.integers(0, net.n)), float(i))
                    for i in range(n_req)]
        positions = {d: int(rng.integers(0, net.n)) for d in range(n_drv)}
        cost = {(r.request_id, d): skim.travel_time[positions[d], r.origin]
                for r in requests for d in positions}
        got = match_batch(requests, set(positions), positions, skim)
        got_total = sum(cost[p] for p in got.pairs)
        k = min(n_req, n_drv)
        if n_req <= n_drv:
            best = min(
                sum(cost[(r.request_id, d)] for r, d in zip(requests, perm))
                for perm in itertools.permutations(sorted(positions), k))
        else:
            drv = sorted(positions)
            best = min(
                sum(cost[(r.request_id, d)] for r, d in zip(perm, drv))
                for perm in itertools.permutations(requests, k))
        batch_ok += (len(got.pairs) == k) and (got_total == best)

    elapsed = time.perf_counter() - t0
    ok = instant_ok == 1000 and batch_ok == 500 and elapsed < 60
    verdict(capsys, 2, ok,
            f"instant {instant_ok}/1000, batch {batch_ok}/500 exact "
            f"({elapsed:.1f}s)")


# ----------------------------------------------- 3: shortest-path oracle

def random_strong_digraph(rng):
    n = int(rng.integers(2, 9))
    arcs = {(i, (i + 1) % n) for i in range(n)}         # ring: strongly connected
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            arcs.add((u, v))
    speeds = (5.0, 10.0, 25.0)
    edges = tuple(
        Edge(u, v, 100.0 * int(rng.integers(1, 10)),
             speeds[rng.integers(0, 3)])
        for u, v in sorted(arcs))
    nodes = tuple(Node(i, float(i), 0.0) for i in range(n))
    return RoadNetwork(nodes, edges)


def all_paths_minimum(net, source):
    """(time, dist) minimum over every simple path, by exhaustive DFS."""
    adj = {}
    for e in net.edges:
        adj.setdefault(e.src, []).append(e)
    best = {source: (0.0, 0.0)}

    def walk(node, t, d, seen):
        for e in adj.get(node, ()):
            if e.dst in seen:
                continue
            nt, nd = t + e.length_m / e.speed_mps, d + e.length_m
            if e.dst not in best or (nt, nd) < best[e.dst]:
                best[e.dst] = (nt, nd)
            walk(e.dst, nt, nd, seen | {e.dst})

    walk(source, 0.0, 0.0, {source})
    return best


def test_c3_skim_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    graphs_ok = 0
    for _ in range(200):
        net = random_strong_digraph(rng)
        skim = build_skim(net)
        good = True
        for s in range(net.n):
            expect = all_paths_minimum(net, s)
            for t in range(net.n):
                et, ed = expect[t]
                if skim.travel_time[s, t] != et or skim.distance[s, t] != ed:
                    good = False
        graphs_ok += good
    elapsed = time.perf_counter() - t0
    verdict(capsys, 3, graphs_ok == 200 and elapsed < 60,
            f"skim exact on {graphs_ok}/200 random connected graphs "
            f"({elapsed:.1f}s)")


# -------------------------------------------------- 4: conservation laws

def conservation_violations(config, log):
    t_rows = kpi.traveller_kpis(log)
    d_rows = kpi.driver_kpis(log)
    bad = []
    occupied = sum(r.occupied_s for r in d_rows)
    in_vehicle = sum(r.in_vehicle_s or 0.0 for r in t_rows)
    if abs(occupied - in_vehicle) > 1e-9 * max(1.0, occupied):
        bad.append(f"occupied {occupied} != in_vehicle {in_vehicle}")
    kinds = {"ARRIVED", "UNSERVED", "OPTED_OUT", "REJECTED_OFFER"}
    if len(t_rows) != config.n_travellers:
        bad.append(f"{len(t_rows)} outcome rows for {config.n_travellers}")
    if any(r.outcome not in kinds for r in t_rows):
        bad.append("unknown outcome")
    fares = payouts = cuts = 0.0
    for rec in log:
        if rec.event == "COMPLETES_RIDE":
            fares += rec.fare
            payouts += rec.payout
            cuts += rec.cut
    if abs(payouts + cuts - fares) > 1e-9:
        bad.append(f"payouts {payouts} + cuts {cuts} != fares {fares}")
    return bad


def test_c4_conservation_laws(capsys):
    t0 = time.perf_counter()
    variants = [rich_raw()]
    base = rich_raw()
    for tweak in (
        {"n_drivers": 3, "n_travellers": 120},           # heavy contention
        {"platforms": [{"platform_id": 0, "base_fare": 0.0,
                        "fare_per_km": 1.0, "commission_rate": 0.0,
                        "matching": {"batched": {"window_s": 60}}}]},
        {"behaviour": {"max_wait_s": 60},                # mass rejection
         "decisions": {"f_trav_mode": "max_wait"}},
        {"decisions": {}, "behaviour": {}},
        {"demand_weights": [3.0] * 18 + [1.0] * 18},
    ):
        raw = json.loads(json.dumps(base))
        raw.update(tweak)
        variants.append(raw)

    checked = 0
    problems = []
    for raw in variants:
        config, _, result = run_config(raw)
        problems += conservation_violations(config, result.log)
        checked += 1
    rich = parse_config(rich_raw())
    logs = []
    day_to_day(rich, LearningParams(max_days=6), on_day=logs.append)
    for log in logs:
        problems += conservation_violations(rich, log)
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict(capsys, 4, not problems,
            f"{checked} logs conserve time, outcomes and money "
            f"({elapsed:.1f}s)" + (f"; first: {problems[:1]}" if problems else ""))


# ------------------------------------- 5: demand/supply waiting trends

def test_c5_wait_trends_across_grid(capsys):
    t0 = time.perf_counter()
    plan = parse_plan(json.loads(presets.read_text("e2")))
    rows = run_grid(plan)
    demands = plan.grid["n_travellers"]
    fleets = plan.grid["n_drivers"]

    def cell_mean(demand, fleet, field):
        vals = [r[field] for r in rows
                if r["n_travellers"] == demand and r["n_drivers"] == fleet
                and r[field] is not None]
        return sum(vals) / len(vals)

    bad = []
    for demand in demands:
        waits = [cell_mean(demand, f, "wait_mean_s") for f in fleets]
        r = rho(fleets, waits)
        if not r <= -0.8:
            bad.append(f"traveller wait vs fleet at demand {demand}: rho={r:.2f}")
    for fleet in fleets:
        fmw = [cell_mean(d, fleet, "driver_first_match_wait_mean_s")
               for d in demands]
        r = rho(demands, fmw)
        if not r <= -0.8:
            bad.append(f"driver wait vs demand at fleet {fleet}: rho={r:.2f}")
    elapsed = time.perf_counter() - t0
    verdict(capsys, 5, not bad and elapsed < 600,
            f"{len(rows)} runs, all {len(demands) + len(fleets)} trend "
            f"correlations hold ({elapsed:.1f}s)"
            + (f"; {bad}" if bad else ""))


# ---------------------------------------------- 6: learning dynamics

def test_c6_fleet_learning_dynamics(capsys):
    t0 = time.perf_counter()
    config = parse_config(json.loads(presets.read_text("e4")))
    drops, stable = 0, []
    for seed in range(10):
        res = day_to_day(replace(config, seed=seed), LearningParams())
        fleet = [row["fleet_participating"] for row in res.trajectory]
        drops += any(f < 90 for f in fleet[:10])
        tail = fleet[-10:]
        mean = statistics.mean(tail)
        stable.append(statistics.pstdev(tail) < 0.1 * mean)
    elapsed = time.perf_counter() - t0
    ok = drops >= 8 and all(stable) and elapsed < 300
    verdict(capsys, 6, ok,
            f"fleet under 90 within 10 days for {drops}/10 seeds, "
            f"tail stable for {sum(stable)}/10 ({elapsed:.1f}s)")


# -------------------------------------------- 7: performance envelope

def test_c7_performance_envelope(capsys):
    raw = {
        "horizon_s": 14400, "n_travellers": 1000, "n_drivers": 100, "seed": 7,
        "platforms": [{"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
                       "commission_rate": 0.2, "matching": "instant"}],
        "graph": {"grid": {"rows": 40, "cols": 25, "spacing_m": 500,
                           "speed_mps": 10}},
    }
    t0 = time.perf_counter()
    config = parse_config(raw)
    inputs = materialize(config)                # skim built fresh, not cached
    result = run_day(config, inputs,
                     build_decision_set(config.decisions, config.behaviour))
    t_rows = kpi.traveller_kpis(result.log)
    d_rows = kpi.driver_kpis(result.log)
    kpi.system_kpis(result.day, t_rows, d_rows, config.platforms, result.log)
    elapsed = time.perf_counter() - t0
    verdict(capsys, 7, elapsed < 70,
            f"1000 travellers / 100 drivers / 4h / {inputs.net.n}-node grid "
            f"in {elapsed:.1f}s (< 70s)")


# ------------------------------------- 8: platform competition mechanism

def test_c8_competition_mechanism(capsys):
    t0 = time.perf_counter()
    plan = parse_plan(json.loads(presets.read_text("e3")))
    rows = run_grid(plan)
    fleets = plan.grid["n_drivers"]
    fares = plan.grid["platforms[1].fare_per_km"]

    def cell(fare, n_drivers, field):
        vals = [r[field] for r in rows
                if r["platforms[1].fare_per_km"] == fare
                and r["n_drivers"] == n_drivers]
        return sum(vals) / len(vals)

    bad = []
    degenerate = 0
    for fare in fares:
        served = [cell(fare, n, "n_served_platform_1") for n in fleets]
        revenue = [cell(fare, n, "revenue_platform_1") for n in fleets]
        if len(set(served)) == 1 or len(set(revenue)) == 1:
            degenerate += 1                     # constant: trivially monotone
        else:
            r = rho(served, revenue)
            if not r >= 0.8:
                bad.append(f"revenue vs served at fare {fare}: rho={r:.2f}")
        per_driver = [cell(fare, n, "vkm_platform_1")
                      / cell(fare, n, "fleet_platform_1") for n in fleets]
        if len(set(per_driver)) == 1:
            degenerate += 1
        else:
            r = rho(fleets, per_driver)
            if not r <= -0.5:
                bad.append(f"mileage vs fleet at fare {fare}: rho={r:.2f}")
    elapsed = time.perf_counter() - t0
    verdict(capsys, 8, not bad and elapsed < 600,
            f"{len(rows)} runs, mechanism holds for all {len(fares)} fares "
            f"({degenerate} degenerate) ({elapsed:.1f}s)"
            + (f"; {bad}" if bad else ""))


# ------------------------------------------- 9: randomized properties

def random_scenario_raw(rng):
    n_platforms = int(rng.integers(1, 3))
    platforms = []
    for pid in range(n_platforms):
        matching = ("instant" if rng.random() < 0.6
                    else {"batched": {"window_s": float(rng.integers(15, 70))}})
        platforms.append({
            "platform_id": pid,
            "base_fare": float(rng.choice([0.0, 0.5])),
            "fare_per_km": float(rng.choice([0.8, 1.0, 1.3])),
            "commission_rate": float(rng.choice([0.0, 0.2])),
            "matching": matching,
        })
    n_drivers = int(rng.integers(1, 6))
    if n_platforms == 2 and n_drivers >= 2 and rng.random() < 0.5:
        platforms[0]["fleet"] = int(rng.integers(1, n_drivers))
    behaviour = {}
    if rng.random() < 0.4:
        behaviour["service_variability"] = 0.3
    if rng.random() < 0.3:
        behaviour["t_board_s"] = 20.0
    if rng.random() < 0.3:
        behaviour["max_wait_s"] = float(rng.integers(30, 400))
    decisions = {}
    if rng.random() < 0.3:
        behaviour.setdefault("decline_eta_s", float(rng.integers(50, 500)))
        decisions["f_driver_decline"] = "decline_far_pickup"
    if rng.random() < 0.3:
        decisions["f_driver_repos"] = "repos_to_demand"
    raw = {
        "horizon_s": float(rng.integers(600, 1800)),
        "n_travellers": int(rng.integers(1, 16)),
        "n_drivers": n_drivers,
        "seed": int(rng.integers(0, 10 ** 6)),
        "platforms": platforms,
        "graph": {"grid": {"rows": int(rng.integers(2, 5)),
                           "cols": int(rng.integers(2, 5)),
                           "spacing_m": float(rng.integers(2, 8) * 50),
                           "speed_mps": 10}},
        "behaviour": behaviour,
        "decisions": decisions,
    }
    return raw


def _pairs(rng, fn, make_builder, n):
    """fn on two identical contexts (same fields, same rng seed) must agree."""
    agree = 0
    for _ in range(n):
        build = make_builder(rng)           # field values drawn once
        seed = int(rng.integers(0, 2 ** 32))
        a = fn(build(np.random.default_rng(seed)))
        b = fn(build(np.random.default_rng(seed)))
        agree += a == b
    return agree, n


def test_c9_randomized_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    cases = 0
    failures = []

    # replay validation + conservation over random scenarios
    for _ in range(300):
        raw = random_scenario_raw(rng)
        try:
            config, _, result = run_config(raw)
            bad = conservation_violations(config, result.log)
            if bad:
                failures.append(f"conservation: {bad[0]} in {raw}")
        except Exception as exc:            # any crash is a property failure
            failures.append(f"run failed: {exc!r}")
        cases += 1

    # hook purity: same context (and rng state) -> same answer
    req = Request(0, 0, 1, 2, 50.0)
    offer_of = lambda r: Offer(0, 1, 0, float(r.integers(0, 900)),
                               120.0, 1500.0, float(r.integers(1, 6)))
    spec_drv = None  # driver spec unused by the shipped driver modules

    def out_ctx(r):
        day = int(r.integers(0, 4))
        learned = None if r.random() < 0.2 else float(r.uniform(0, 6))
        yesterday = bool(r.integers(0, 2))
        eps = float(r.uniform(0, 0.4))
        return lambda g: DriverOutCtx(
            driver_id=0, spec=spec_drv, day=day,
            learned_income_per_hour=learned,
            participated_yesterday=yesterday,
            params={"reservation_wage_per_hour": 2.5, "epsilon": eps}, rng=g)

    def decline_ctx(r):
        eta = float(r.integers(0, 1000))
        limit = float(r.integers(0, 1000))
        return lambda g: DriverDeclineCtx(
            driver_id=0, spec=spec_drv, position=0, request=req,
            platform_id=0, pickup_eta=eta, fare=2.0, payout=1.6,
            params={"decline_eta_s": limit}, rng=g)

    def repos_ctx(r):
        position = int(r.integers(0, 6))
        waiting = {int(n): int(r.integers(1, 4))
                   for n in r.choice(6, r.integers(0, 4), replace=False)}
        return lambda g: DriverReposCtx(
            driver_id=0, position=position, open_requests=waiting,
            n_nodes=6, params={}, rng=g)

    def trav_out_ctx(r):
        day = int(r.integers(0, 3))
        outcome = [None, "ARRIVED", "UNSERVED"][r.integers(0, 3)]
        return lambda g: TravOutCtx(
            traveller_id=0, request=req, day=day,
            yesterday_outcome=outcome, params={}, rng=g)

    def mode_ctx(r):
        offer = offer_of(r)
        limit = float(r.integers(0, 900))
        return lambda g: TravModeCtx(
            traveller_id=0, offer=offer, params={"max_wait_s": limit}, rng=g)

    def choice_ctx(r):
        offers = tuple(offer_of(r) for _ in range(r.integers(1, 4)))
        return lambda g: PlatformChoiceCtx(
            traveller_id=0, offers=offers, params={}, rng=g)

    for fn, make in ((default_driver_out, out_ctx),
                     (decline_far_pickup, decline_ctx),
                     (repos_to_demand, repos_ctx),
                     (opt_out_if_unserved, trav_out_ctx),
                     (default_trav_mode, mode_ctx),
                     # again, as the registered "max_wait" module
                     (default_trav_mode, mode_ctx)):
        agree, n = _pairs(rng, fn, make, 60)
        if agree != n:
            failures.append(f"{fn.__name__} not pure: {agree}/{n}")
        cases += n

    # platform choice: pure, in range, and the (fare, eta, id) minimum
    for _ in range(60):
        ctx = choice_ctx(rng)(np.random.default_rng(0))
        idx = default_platform_choice(ctx)
        keyed = [(o.fare, o.pickup_eta, o.platform_id) for o in ctx.offers]
        if not (0 <= idx < len(ctx.offers) and keyed[idx] == min(keyed)):
            failures.append(f"platform choice picked {idx} from {keyed}")
        cases += 1

    # seed isolation: labelled sub-streams are stable and independent
    from ridesim.seeds import substream
    for _ in range(80):
        master = int(rng.integers(0, 2 ** 40))
        a1 = substream(master, "demand").integers(0, 2 ** 30, 4).tolist()
        a2 = substream(master, "demand").integers(0, 2 ** 30, 4).tolist()
        b = substream(master, "supply").integers(0, 2 ** 30, 4).tolist()
        if a1 != a2:
            failures.append("substream not reproducible")
        if a1 == b:
            failures.append("demand and supply streams collide")
        cases += 2
    net = grid_city(3, 3, 200.0, 10.0)
    for _ in range(40):
        seed = int(rng.integers(0, 10 ** 6))
        before = generate_demand(net, 6, 900.0, seed)
        generate_supply(net, int(rng.integers(1, 9)), 900.0, seed)
        if generate_demand(net, 6, 900.0, seed) != before:
            failures.append("supply draws disturb the demand stream")
        cases += 1

    # grid cell isolation: cells keep their results when siblings change
    base = {
        "horizon_s": 900, "n_travellers": 8, "n_drivers": 2, "seed": 3,
        "platforms": [{"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
                       "commission_rate": 0.0, "matching": "instant"}],
        "graph": {"grid": {"rows": 3, "cols": 3, "spacing_m": 200,
                           "speed_mps": 10}},
    }
    fixed = None
    for other in ([2, 3], [2, 5], [2, 4]):
        plan = parse_plan({"base": base, "grid": {"n_drivers": other},
                           "replications": 2, "base_seed": 70})
        got = [r for r in run_grid(plan) if r["n_drivers"] == 2]
        if fixed is None:
            fixed = got
        elif got != fixed:
            failures.append("sibling cell change leaked into n_drivers=2")
        cases += len(got)

    # epsilon = 0: no re-entry, so participation only shrinks;
    # learned income stays inside the envelope of wage and realized incomes
    for i in range(12):
        raw = random_scenario_raw(rng)
        raw["n_travellers"] = max(raw["n_travellers"], 4)
        raw["decisions"] = {"f_driver_out": "learned_participation"}
        raw["behaviour"].pop("max_wait_s", None)
        wage = float(rng.choice([1.0, 2.5, 4.0]))
        raw["behaviour"].update(epsilon=0.0, reservation_wage_per_hour=wage)
        config = parse_config(raw)
        logs = []
        res = day_to_day(config, LearningParams(max_days=8), on_day=logs.append)
        fleet = [row["fleet_participating"] for row in res.trajectory]
        if any(b > a for a, b in zip(fleet, fleet[1:])):
            failures.append(f"fleet grew with epsilon=0: {fleet}")
        cases += len(fleet)

        realized = {d.driver_id: [] for d in res.inputs.drivers}
        hours = {d.driver_id: (d.shift_end - d.shift_start) / 3600.0
                 for d in res.inputs.drivers}
        for log in logs:
            for row in kpi.driver_kpis(log):
                if row.participated:
                    realized[row.driver_id].append(
                        row.revenue / hours[row.driver_id])
        for d_id, learned in res.learned_income.items():
            lo = min([wage] + realized[d_id])
            hi = max([wage] + realized[d_id])
            if not (lo - 1e-9 <= learned <= hi + 1e-9):
                failures.append(
                    f"learned {learned} outside [{lo}, {hi}] for {d_id}")
            cases += 1

    elapsed = time.perf_counter() - t0
    ok = not failures and cases >= 1000 and elapsed < 300
    verdict(capsys, 9, ok,
            f"{cases} randomized cases, {len(failures)} failures "
            f"({elapsed:.1f}s)"
            + (f"; first: {failures[:2]}" if failures else ""))
