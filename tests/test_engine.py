"""Single-day simulation: event ordering, ride timelines, accounting."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ridesim import engine, kpi, presets
from ridesim.decisions import build_decision_set, default_match, register, repos_to_demand
from ridesim.engine import (
    DayState,
    DriverCarry,
    run_day,
)
from ridesim.errors import ConfigError, SimulationError
from ridesim.netgraph import Edge, Node, RoadNetwork, build_skim, grid_city
from ridesim.scenario import (
    DriverSpec,
    Request,
    ScenarioInputs,
    assign_fleets,
    generate_demand,
    generate_supply,
    materialize,
    parse_config,
)
from tests.test_acceptance import random_scenario_raw


def make_cfg(n_trav, n_drv, horizon=1000.0, platforms=None, behaviour=None,
             decisions=None, seed=7):
    raw = {
        "horizon_s": horizon,
        "n_travellers": n_trav,
        "n_drivers": n_drv,
        "seed": seed,
        "graph": {"grid": {"rows": 2, "cols": 2, "spacing_m": 100, "speed_mps": 10}},
        "platforms": platforms or [
            {"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
             "commission_rate": 0.0, "matching": "instant"},
        ],
    }
    if behaviour:
        raw["behaviour"] = behaviour
    if decisions:
        raw["decisions"] = decisions
    return parse_config(raw)


def line_net():
    # 0 --600m-- 1 --1200m-- 2, both ways, 10 m/s
    nodes = (Node(0, 0.0, 0.0), Node(1, 600.0, 0.0), Node(2, 1800.0, 0.0))
    edges = (
        Edge(0, 1, 600.0, 10.0), Edge(1, 0, 600.0, 10.0),
        Edge(1, 2, 1200.0, 10.0), Edge(2, 1, 1200.0, 10.0),
    )
    return RoadNetwork(nodes, edges)


def run(cfg, net, requests, drivers, day=0, day_state=DayState(), decision_set=None):
    inputs = ScenarioInputs(
        net=net, skim=build_skim(net),
        requests=tuple(requests), drivers=tuple(drivers),
    )
    dec = decision_set or build_decision_set(cfg.decisions, cfg.behaviour)
    return run_day(cfg, inputs, dec, day=day, day_state=day_state)


def outcomes(res):
    """Traveller id -> outcome, read from the day's log."""
    return {row.traveller_id: row.outcome for row in kpi.traveller_kpis(res.log)}


def names(log, kind=None, agent=None):
    return [
        r.event for r in log
        if (kind is None or r.agent_kind == kind)
        and (agent is None or r.agent_id == agent)
    ]


def first(log, event, agent=None):
    for r in log:
        if r.event == event and (agent is None or r.agent_id == agent):
            return r
    raise AssertionError(f"no {event} in log")


@pytest.fixture
def sims(monkeypatch):
    """Every engine run made during the test, so hooks can read its state."""
    made = []

    class Recording(engine._Sim):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine, "_Sim", Recording)
    return made


# ------------------------------------------------------------ base timeline

def test_single_ride_timeline():
    cfg = make_cfg(1, 1)
    res = run(
        cfg, line_net(),
        [Request(0, 0, origin=1, destination=2, t_request=100.0)],
        [DriverSpec(0, home_node=0, shift_start=0.0, shift_end=1000.0,
                    platform_ids=(0,))],
    )
    got = [(r.t, r.agent_kind, r.agent_id, r.event) for r in res.log]
    assert got == [
        (0.0, "DRIVER", 0, "STARTS_SHIFT"),
        (100.0, "TRAVELLER", 0, "PLANS"),
        (100.0, "TRAVELLER", 0, "REQUESTS"),
        (100.0, "DRIVER", 0, "RECEIVES_REQUEST"),
        (100.0, "DRIVER", 0, "ACCEPTS_REQUEST"),
        (100.0, "TRAVELLER", 0, "RECEIVES_OFFER"),
        (100.0, "TRAVELLER", 0, "ACCEPTS_OFFER"),
        (100.0, "PLATFORM", 0, "MATCH"),
        (160.0, "DRIVER", 0, "ARRIVES_PICKUP"),
        (160.0, "DRIVER", 0, "DEPARTS_WITH_TRAVELLER"),
        (160.0, "TRAVELLER", 0, "PICKED_UP"),
        (280.0, "DRIVER", 0, "COMPLETES_RIDE"),
        (280.0, "TRAVELLER", 0, "ARRIVES"),
        (1000.0, "DRIVER", 0, "ENDS_SHIFT"),
    ]
    wait = first(res.log, "PICKED_UP").t - first(res.log, "REQUESTS").t
    ride = first(res.log, "ARRIVES").t - first(res.log, "PICKED_UP").t
    assert wait == 60.0
    assert ride == 120.0


def test_match_meta_format():
    cfg = make_cfg(1, 1)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
    )
    match = first(res.log, "MATCH")
    assert match.node == -1
    assert (match.request_id, match.driver_id, match.eta_s, match.fare) == \
        (0, 0, 60.0, 1.2)
    done = first(res.log, "COMPLETES_RIDE")
    assert (done.request_id, done.platform_id, done.dist_m, done.fare,
            done.payout, done.cut) == (0, 0, 1200.0, 1.2, 1.2, 0.0)
    pickup = first(res.log, "ARRIVES_PICKUP")
    assert (pickup.request_id, pickup.platform_id, pickup.dist_m) == (0, 0, 600.0)


def test_driver_day_accounting():
    cfg = make_cfg(1, 1)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
    )
    row = kpi.driver_kpis(res.log)[0]
    assert row.participated
    assert row.revenue == pytest.approx(1.2)
    assert row.shift_s == pytest.approx(1000.0)
    assert row.idle_s == pytest.approx(820.0)
    assert row.empty_drive_s == pytest.approx(60.0)
    assert row.occupied_s == pytest.approx(120.0)
    assert row.mileage_m == pytest.approx(1800.0)
    assert row.idle_s + row.empty_drive_s + row.occupied_s == pytest.approx(1000.0)
    assert outcomes(res)[0] == "ARRIVED"
    system = kpi.system_kpis(res.day, kpi.traveller_kpis(res.log), [row],
                             cfg.platforms, res.log)
    assert system["revenue_platform_0"] == pytest.approx(1.2)


def test_no_demand_logs_only_shift_edges():
    cfg = make_cfg(0, 3, horizon=500.0)
    net = grid_city(2, 2, 100.0, 10.0)
    drivers = [DriverSpec(i, i, 0.0, 500.0, (0,)) for i in range(3)]
    res = run(cfg, net, [], drivers)
    got = [(r.t, r.agent_id, r.event) for r in res.log]
    assert got == [
        (0.0, 0, "STARTS_SHIFT"), (0.0, 1, "STARTS_SHIFT"),
        (0.0, 2, "STARTS_SHIFT"),
        (500.0, 0, "ENDS_SHIFT"), (500.0, 1, "ENDS_SHIFT"),
        (500.0, 2, "ENDS_SHIFT"),
    ]


# --------------------------------------------------------------- determinism

def busy_inputs(cfg, rows=3, cols=3):
    net = grid_city(rows, cols, 200.0, 10.0)
    requests = generate_demand(net, cfg.n_travellers, cfg.horizon_s, cfg.seed)
    drivers = generate_supply(net, cfg.n_drivers, cfg.horizon_s, cfg.seed)
    return net, requests, drivers


def test_identical_runs_identical_logs():
    cfg = make_cfg(15, 4, horizon=3600.0, seed=11)
    net, requests, drivers = busy_inputs(cfg)
    a = run(cfg, net, requests, drivers)
    b = run(cfg, net, requests, drivers)
    assert a.log == b.log


def test_conservation_random_scenario():
    cfg = make_cfg(30, 6, horizon=3600.0, seed=23, platforms=[
        {"platform_id": 0, "base_fare": 0.5, "fare_per_km": 1.0,
         "commission_rate": 0.25, "matching": "instant"},
    ])
    net = grid_city(4, 4, 250.0, 10.0)
    requests = generate_demand(net, 30, 3600.0, 23)
    drivers = generate_supply(net, 6, 3600.0, 23)
    res = run(cfg, net, requests, drivers)

    picked = {r.agent_id: r.t for r in res.log if r.event == "PICKED_UP"}
    arrived = {r.agent_id: r.t for r in res.log if r.event == "ARRIVES"}
    in_vehicle = sum(arrived[i] - picked[i] for i in picked)
    drows = kpi.driver_kpis(res.log)
    occupied = sum(r.occupied_s for r in drows if r.participated)
    assert occupied == pytest.approx(in_vehicle, abs=1e-6)

    fares = payouts = cuts = 0.0
    for r in res.log:
        if r.event == "COMPLETES_RIDE":
            fares += r.fare
            payouts += r.payout
            cuts += r.cut
    assert abs((payouts + cuts) - fares) < 1e-9
    system = kpi.system_kpis(res.day, kpi.traveller_kpis(res.log), drows,
                             cfg.platforms, res.log)
    assert system["revenue_platform_0"] == pytest.approx(fares, abs=1e-9)
    earned = sum(r.revenue for r in drows)
    assert earned == pytest.approx(payouts, abs=1e-9)

    specs = {d.driver_id: d for d in drivers}
    for row in drows:
        if not row.participated:
            continue
        worked = row.idle_s + row.empty_drive_s + row.occupied_s
        spec = specs[row.driver_id]
        assert worked >= spec.shift_end - spec.shift_start - 1e-6


def test_outcomes_partition_travellers():
    cfg = make_cfg(40, 3, horizon=1800.0, seed=5,
                   behaviour={"max_wait_s": 120.0})
    net = grid_city(4, 4, 300.0, 10.0)
    requests = generate_demand(net, 40, 1800.0, 5)
    drivers = generate_supply(net, 3, 1800.0, 5)
    res = run(cfg, net, requests, drivers)
    assert sorted(outcomes(res)) == list(range(40))
    assert set(outcomes(res).values()) <= {
        "ARRIVED", "UNSERVED", "OPTED_OUT", "REJECTED_OFFER",
    }


# ---------------------------------------------------------- declines/rejects

def test_driver_decline_leaves_request_unserved():
    cfg = make_cfg(1, 1, behaviour={"decline_eta_s": 10.0},
                   decisions={"f_driver_decline": "decline_far_pickup"})
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 0, 0.0, 1000.0, (0,))],   # pickup eta 60 > 10
    )
    assert names(res.log, "DRIVER", 0) == [
        "STARTS_SHIFT", "RECEIVES_REQUEST", "DECLINES_REQUEST", "ENDS_SHIFT",
    ]
    unserved = first(res.log, "UNSERVED")
    assert unserved.t == 1000.0
    assert unserved.reason == "horizon"
    assert "MATCH" not in names(res.log)
    assert outcomes(res)[0] == "UNSERVED"


def test_decline_ctx_payout_is_the_settled_payout():
    # the payout a driver weighs when deciding is the one it is later paid
    offered = []

    def record_payout(ctx):
        offered.append((ctx.request.request_id, ctx.payout))
        return False

    register("f_driver_decline", "test_record_payout", record_payout)
    cfg = dataclasses.replace(parse_config(json.loads(presets.read_text("e1"))),
                              decisions={"f_driver_decline": "test_record_payout"})
    res = run_day(cfg, materialize(cfg), build_decision_set(cfg.decisions, cfg.behaviour))
    paid = {r.request_id: r.payout for r in res.log if r.event == "COMPLETES_RIDE"}
    assert len(paid) > 100
    assert {rid for rid, _ in offered} >= set(paid)
    assert all(payout == paid[rid] for rid, payout in offered if rid in paid)


def test_max_rejections_kills_request():
    cfg = make_cfg(1, 4, behaviour={"max_wait_s": 0.0, "max_rejections": 3})
    net = grid_city(2, 6, 100.0, 10.0)
    drivers = [DriverSpec(i, i + 1, 0.0, 1000.0, (0,)) for i in range(4)]
    res = run(cfg, net, [Request(0, 0, 0, 5, 50.0)], drivers)
    rejects = [r for r in res.log if r.event == "REJECTS_OFFER"]
    assert len(rejects) == 3
    assert all(r.t == 50.0 for r in rejects)
    unserved = first(res.log, "UNSERVED")
    assert unserved.t == 50.0
    assert unserved.reason == "max_rejections"
    # every reserved driver went back to work and ended its shift normally
    assert names(res.log).count("ENDS_SHIFT") == 4


def test_rejected_then_rematched_later():
    cfg = make_cfg(1, 2, behaviour={"max_wait_s": 100.0})
    net = line_net()
    drivers = [
        DriverSpec(0, 2, 0.0, 1000.0, (0,)),      # eta 120 from node 2 to 1
        DriverSpec(1, 1, 200.0, 1000.0, (0,)),    # at the origin, later shift
    ]
    res = run(cfg, net, [Request(0, 0, 1, 0, 100.0)], drivers)
    assert first(res.log, "REJECTS_OFFER").t == 100.0
    match = first(res.log, "MATCH")
    assert match.t == 200.0
    assert match.driver_id == 1
    assert outcomes(res)[0] == "ARRIVED"


def test_rejected_offer_outcome_without_rematch():
    cfg = make_cfg(1, 1, behaviour={"max_wait_s": 100.0})
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 0, 100.0)],
        [DriverSpec(0, 2, 0.0, 1000.0, (0,))],   # eta 120 > 100, rejected
    )
    assert names(res.log).count("REJECTS_OFFER") == 1
    assert "UNSERVED" not in names(res.log)
    assert outcomes(res)[0] == "REJECTED_OFFER"


# ------------------------------------------------------------------ batching

def test_batched_matching_fires_on_window_boundaries():
    cfg = make_cfg(2, 1, platforms=[
        {"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
         "commission_rate": 0.0, "matching": {"batched": {"window_s": 60.0}}},
    ])
    net = line_net()
    res = run(
        cfg, net,
        [Request(0, 0, 1, 2, 10.0), Request(1, 1, 1, 2, 70.0)],
        [DriverSpec(0, 1, 0.0, 1000.0, (0,))],
    )
    matches = [r for r in res.log if r.event == "BATCH_MATCH"]
    assert "MATCH" not in names(res.log)
    assert len(matches) == 2
    assert matches[0].t == 60.0
    assert all(m.t % 60.0 == 0.0 for m in matches)
    assert first(res.log, "PICKED_UP", agent=0).t == 60.0
    assert outcomes(res) == {0: "ARRIVED", 1: "ARRIVED"}


def test_request_at_boundary_joins_that_window():
    cfg = make_cfg(1, 1, platforms=[
        {"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
         "commission_rate": 0.0, "matching": {"batched": {"window_s": 60.0}}},
    ])
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 60.0)],
        [DriverSpec(0, 1, 0.0, 1000.0, (0,))],
    )
    assert first(res.log, "BATCH_MATCH").t == 60.0


def test_f_match_sees_batched_mode_only_at_window_boundaries(sims):
    cfg = make_cfg(12, 3, horizon=1800.0, seed=3, platforms=[
        {"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
         "commission_rate": 0.0, "matching": "instant", "fleet": 1},
        {"platform_id": 1, "base_fare": 0.0, "fare_per_km": 1.0,
         "commission_rate": 0.0, "matching": {"batched": {"window_s": 60.0}}},
    ])
    net, requests, drivers = busy_inputs(cfg)
    calls = []

    def spy(ctx):
        calls.append((sims[-1].now, ctx.platform_id, ctx.mode))
        return default_match(ctx)

    dec = dataclasses.replace(
        build_decision_set(None, cfg.behaviour), f_match=spy)
    res = run(cfg, net, requests, assign_fleets(drivers, cfg.platforms),
              decision_set=dec)
    assert {(pid, mode) for _, pid, mode in calls} == {
        (0, "instant"), (1, "batched")}
    batched = [t for t, _, mode in calls if mode == "batched"]
    assert batched and all(t % 60.0 == 0.0 for t in batched)
    assert len(batched) == len(set(batched))
    assert any(t % 60.0 for t, _, mode in calls if mode == "instant")
    assert "MATCH" in names(res.log) and "BATCH_MATCH" in names(res.log)


# ------------------------------------------------------------ multi-platform

def two_platform_cfg(fare0, fare1):
    return make_cfg(2, 2, platforms=[
        {"platform_id": 0, "base_fare": 0.0, "fare_per_km": fare0,
         "commission_rate": 0.0, "matching": "instant"},
        {"platform_id": 1, "base_fare": 0.0, "fare_per_km": fare1,
         "commission_rate": 0.0, "matching": "instant"},
    ])


def test_traveller_picks_cheaper_platform():
    cfg = two_platform_cfg(2.0, 1.0)
    net = line_net()
    res = run(
        cfg, net,
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 1, 0.0, 1000.0, (0,)), DriverSpec(1, 1, 0.0, 1000.0, (1,))],
    )
    offers = [r for r in res.log if r.event == "RECEIVES_OFFER"]
    assert len(offers) == 2
    assert offers[0].platform_id == 0
    assert offers[1].platform_id == 1
    match = first(res.log, "MATCH")
    assert match.agent_id == 1
    assert match.driver_id == 1


def test_multi_homing_driver_not_double_booked():
    cfg = two_platform_cfg(1.0, 1.0)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 1, 0.0, 1000.0, (0, 1))],
    )
    offers = [r for r in res.log if r.event == "RECEIVES_OFFER"]
    assert len(offers) == 1      # reserved on first platform, gone from second
    assert first(res.log, "MATCH").agent_id == 0


def test_losing_driver_serves_next_traveller():
    cfg = two_platform_cfg(2.0, 1.0)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0), Request(1, 1, 1, 2, 150.0)],
        [DriverSpec(0, 1, 0.0, 1000.0, (0,)), DriverSpec(1, 1, 0.0, 1000.0, (1,))],
    )
    first_match = first(res.log, "MATCH")
    assert first_match.driver_id == 1
    second = [r for r in res.log if r.event == "MATCH"][1]
    assert second.t == 150.0
    assert second.driver_id == 0      # released loser is available again
    assert outcomes(res) == {0: "ARRIVED", 1: "ARRIVED"}


# ------------------------------------------------------- service durations

def test_boarding_and_alighting_delays():
    cfg = make_cfg(1, 1, behaviour={"t_board_s": 30.0, "t_alight_s": 20.0})
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
    )
    assert first(res.log, "ARRIVES_PICKUP").t == 160.0
    assert first(res.log, "PICKED_UP").t == 190.0
    assert first(res.log, "ARRIVES").t == 330.0
    row = kpi.driver_kpis(res.log)[0]
    assert row.occupied_s == pytest.approx(140.0)   # ride leg plus alighting
    assert row.empty_drive_s == pytest.approx(60.0)


def test_service_variability_bounded_and_deterministic():
    cfg = make_cfg(1, 1, behaviour={"t_board_s": 100.0,
                                    "service_variability": 0.5})
    args = (
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
    )
    a = run(cfg, line_net(), *args)
    b = run(cfg, line_net(), *args)
    boarding = first(a.log, "PICKED_UP").t - first(a.log, "ARRIVES_PICKUP").t
    assert 50.0 <= boarding <= 150.0
    assert boarding != 100.0
    assert a.log == b.log


# ------------------------------------------------------------- shift edges

def test_ride_overshoots_shift_end():
    cfg = make_cfg(1, 1)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 150.0)],
        [DriverSpec(0, 1, 0.0, 200.0, (0,))],
    )
    tail = [(r.t, r.event) for r in res.log[-3:]]
    assert tail == [
        (270.0, "COMPLETES_RIDE"), (270.0, "ARRIVES"), (270.0, "ENDS_SHIFT"),
    ]


def test_no_new_match_at_shift_end():
    cfg = make_cfg(1, 1, horizon=500.0)
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 100.0)],
        [DriverSpec(0, 1, 0.0, 100.0, (0,))],    # shift ends as request lands
    )
    assert "MATCH" not in names(res.log)
    assert first(res.log, "ENDS_SHIFT").t == 100.0
    assert outcomes(res)[0] == "UNSERVED"


# ------------------------------------------------------------ repositioning

def test_repositioning_towards_open_demand():
    cfg = make_cfg(2, 1, horizon=2000.0,
                   decisions={"f_driver_repos": "repos_to_demand"})
    net = line_net()
    res = run(
        cfg, net,
        [Request(0, 0, 1, 2, 10.0), Request(1, 1, 0, 1, 20.0)],
        [DriverSpec(0, 1, 0.0, 2000.0, (0,))],
    )
    start = first(res.log, "STARTS_REPOSITIONING")
    stop = first(res.log, "ARRIVES_REPOSITION")
    assert start.t == 130.0        # right after completing the first ride
    assert start.target == 0
    assert stop.node == 0
    assert stop.t == start.t + 180.0
    assert first(res.log, "PICKED_UP", agent=1).t == stop.t
    assert outcomes(res) == {0: "ARRIVED", 1: "ARRIVED"}


# ------------------------------------------------------ cross-day behaviour

def test_driver_opt_out_from_learned_income():
    cfg = make_cfg(0, 2, decisions={"f_driver_out": "learned_participation"})
    net = grid_city(2, 2, 100.0, 10.0)
    drivers = [DriverSpec(i, 0, 0.0, 1000.0, (0,)) for i in range(2)]
    state = DayState(
        drivers={
            0: DriverCarry(learned_income=1.0, participated_yesterday=True),
            1: DriverCarry(learned_income=9.0, participated_yesterday=True),
        },
    )
    res = run(cfg, net, [], drivers, day=1, day_state=state)
    assert names(res.log, agent=0) == ["OPTS_OUT"]
    assert names(res.log, agent=1) == ["STARTS_SHIFT", "ENDS_SHIFT"]
    assert [row.participated for row in kpi.driver_kpis(res.log)] == [False, True]


def test_traveller_opt_out_after_bad_day():
    cfg = make_cfg(2, 1, decisions={"f_trav_out": "opt_out_if_unserved"})
    state = DayState(traveller_outcomes={0: "UNSERVED", 1: "ARRIVED"})
    res = run(
        cfg, line_net(),
        [Request(0, 0, 1, 2, 10.0), Request(1, 1, 1, 2, 400.0)],
        [DriverSpec(0, 1, 0.0, 1000.0, (0,))],
        day=1, day_state=state,
    )
    assert names(res.log, "TRAVELLER", 0) == ["PLANS", "OPTS_OUT"]
    assert outcomes(res)[0] == "OPTED_OUT"
    assert outcomes(res)[1] == "ARRIVED"


# ------------------------------------------------------------- hook guards

def test_bad_match_hook_rejected():
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)
    bad = dataclasses.replace(dec, f_match=lambda ctx: ((0, 99),))
    with pytest.raises(SimulationError, match="f_match"):
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)


@pytest.mark.parametrize("result", [None, 5])
def test_non_iterable_match_result_rejected(result):
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)
    bad = dataclasses.replace(dec, f_match=lambda ctx: result)
    with pytest.raises(SimulationError, match="f_match"):
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)


def test_match_generator_result_equals_list():
    cfg = make_cfg(20, 4, horizon=3600.0, seed=11)
    net, requests, drivers = busy_inputs(cfg)
    dec = build_decision_set(None, cfg.behaviour)
    lazy = dataclasses.replace(
        dec, f_match=lambda ctx: (pair for pair in default_match(ctx)))
    expected = run(cfg, net, requests, drivers, decision_set=dec)
    assert "MATCH" in names(expected.log)
    assert run(cfg, net, requests, drivers, decision_set=lazy).log == expected.log


def test_bad_choice_hook_rejected():
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)
    bad = dataclasses.replace(dec, f_platform_choice=lambda ctx: 5)
    with pytest.raises(SimulationError, match="f_platform_choice"):
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)


def _raise(exc):
    def hook(ctx):
        raise exc
    return hook


@pytest.mark.parametrize("slot,agent", [
    ("f_driver_out", "driver 0"), ("f_trav_out", "traveller 0"),
    ("f_match", "platform 0"), ("f_driver_decline", "driver 0"),
    ("f_platform_choice", "traveller 0"), ("f_trav_mode", "traveller 0"),
    ("f_driver_repos", "driver 0"),
])
def test_hook_exception_becomes_simulation_error(slot, agent):
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)
    bad = dataclasses.replace(dec, **{slot: _raise(ValueError("boom"))})
    with pytest.raises(SimulationError) as info:
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)
    message = str(info.value)
    assert message.startswith("t=")
    assert f"{slot} raised ValueError for {agent}: boom" in message
    assert isinstance(info.value.__cause__, ValueError)


def test_hook_exception_names_simulated_time_and_repos_driver():
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)
    bad = dataclasses.replace(dec, f_driver_repos=_raise(KeyError("lost")))
    with pytest.raises(SimulationError,
                       match=r"^t=[0-9.]+: f_driver_repos raised KeyError for driver 3"):
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(3, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)
    bad = dataclasses.replace(dec, f_trav_mode=_raise(ValueError("late")))
    with pytest.raises(SimulationError, match=r"^t=1\d\d(\.\d+)?: f_trav_mode"):
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)


def test_hook_ridesim_error_passes_through():
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)
    err = ConfigError("behaviour.custom", "hook rejects its parameter")
    bad = dataclasses.replace(dec, f_trav_mode=_raise(err))
    with pytest.raises(ConfigError) as info:
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)
    assert info.value is err


@pytest.mark.parametrize("slot,answer,shown,agent", [
    ("f_driver_out", 1, "1", "driver 0"),
    ("f_trav_out", "yes", "'yes'", "traveller 0"),
    ("f_driver_decline", 1, "1", "driver 0"),
    ("f_trav_mode", "yes", "'yes'", "traveller 0"),
    ("f_platform_choice", 5, "5", "traveller 0"),
    ("f_driver_repos", "north", "'north'", "driver 0"),
    ("f_match", 42, "42", "platform 0"),
    ("f_match", [(0,)], "(0,)", "platform 0"),
])
def test_bad_hook_answer_names_slot_agent_and_time(slot, answer, shown, agent):
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)
    bad = dataclasses.replace(dec, **{slot: lambda ctx: answer})
    with pytest.raises(SimulationError) as info:
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)
    assert re.match(rf"t=[0-9.]+: {slot} returned {re.escape(shown)} for "
                    rf"{agent}, expected \S", str(info.value))


def test_hook_cannot_rewrite_params():
    cfg = make_cfg(1, 1)
    dec = build_decision_set(None, cfg.behaviour)

    def rewrite(ctx):
        ctx.params["max_rejections"] = 0
        return False

    bad = dataclasses.replace(dec, f_trav_out=rewrite)
    with pytest.raises(SimulationError,
                       match=r"^t=100: f_trav_out raised TypeError for traveller 0") as info:
        run(cfg, line_net(),
            [Request(0, 0, 1, 2, 100.0)],
            [DriverSpec(0, 0, 0.0, 1000.0, (0,))],
            decision_set=bad)
    assert isinstance(info.value.__cause__, TypeError)


def test_repos_hook_called_only_on_real_drivers():
    cfg = make_cfg(1, 2)
    dec = build_decision_set(None, cfg.behaviour)
    calls = []

    def repos(ctx):
        calls.append(ctx.driver_id)
        return None

    spy = dataclasses.replace(dec, f_driver_repos=repos)
    drivers = [DriverSpec(0, 0, 0.0, 1000.0, (0,)), DriverSpec(1, 2, 0.0, 1000.0, (0,))]
    run(cfg, line_net(), [], drivers, decision_set=spy)
    assert calls == []
    res = run(cfg, line_net(), [Request(0, 0, 1, 2, 100.0)], drivers,
              decision_set=spy)
    assert names(res.log).count("COMPLETES_RIDE") == 1
    assert calls == [first(res.log, "COMPLETES_RIDE").agent_id]


def test_engine_calls_hooks_in_one_place():
    # _Sim.hook is the one hook call and the one yes/no answer check; the
    # range checks of the index answers share _is_index
    tree = ast.parse(Path(engine.__file__).read_text())
    hook_calls, bool_checks = [], []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            args = [ast.unparse(a) for a in node.args]
            if node.func.id == "getattr" and args[:1] == ["self.decisions"]:
                hook_calls.append(fn.name)
            if node.func.id == "isinstance" and args[1:] == ["bool"]:
                bool_checks.append(fn.name)
    assert hook_calls == ["hook"]
    assert sorted(bool_checks) == ["_is_index", "hook"]


# ---------------------------------------------------------- queue invariants

def check_queues(sim):
    """The engine's waiting counts by origin equal a rescan of its request
    queue; the queue is in (t_request, request_id) order, its bisect keys
    are those of its requests, it matches its id set and holds exactly the
    travellers waiting for an offer. Returns the rescanned counts."""
    keys = [(r.t_request, r.request_id) for r in sim.waiting]
    assert keys == sorted(keys)
    assert sim.waiting_keys == keys
    assert len(keys) == len(sim.waiting_ids)
    assert {r.request_id for r in sim.waiting} == sim.waiting_ids
    waiting = {t.request.request_id for t in sim.travellers.values()
               if t.status == "waiting"}
    assert waiting <= sim.waiting_ids
    counts = {}
    for r in sim.waiting:
        counts[r.origin] = counts.get(r.origin, 0) + 1
    assert sim.open_counts == counts
    return counts


def test_request_queue_stays_ordered():
    cfg = make_cfg(4, 0)
    reqs = {rid: Request(rid, rid, rid % 2, 2, t)
            for rid, t in [(2, 30.0), (7, 10.0), (1, 10.0), (4, 20.0)]}
    inputs = ScenarioInputs(net=line_net(), skim=build_skim(line_net()),
                            requests=tuple(reqs.values()), drivers=())
    sim = engine._Sim(cfg, inputs, build_decision_set(None, cfg.behaviour),
                      0, DayState())
    for rid in (2, 7, 1, 4):
        sim._enqueue(reqs[rid])

    def order():
        check_queues(sim)
        return [(r.t_request, r.request_id) for r in sim.waiting]

    assert order() == [(10.0, 1), (10.0, 7), (20.0, 4), (30.0, 2)]
    assert sim.open_counts == {0: 2, 1: 2}
    sim._dequeue(reqs[7])
    assert order() == [(10.0, 1), (20.0, 4), (30.0, 2)]
    sim._dequeue(reqs[7])                   # not waiting: a no-op
    assert order() == [(10.0, 1), (20.0, 4), (30.0, 2)]
    sim._dequeue(reqs[4])                   # from the middle
    assert order() == [(10.0, 1), (30.0, 2)]
    assert sim.waiting_ids == {1, 2} and sim.open_counts == {0: 1, 1: 1}
    sim._enqueue(reqs[7])
    assert order() == [(10.0, 1), (10.0, 7), (30.0, 2)]


INSTANT = {"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
           "commission_rate": 0.1, "matching": "instant"}
BATCHED = {"platform_id": 1, "base_fare": 0.0, "fare_per_km": 0.9,
           "commission_rate": 0.1, "matching": {"batched": {"window_s": 45.0}}}


@pytest.mark.parametrize("platforms", [
    [INSTANT],
    [dict(BATCHED, platform_id=0)],
    [dict(INSTANT, fleet=2), BATCHED],
], ids=["instant", "batched", "instant+batched"])
def test_queue_counts_match_rescan(monkeypatch, sims, platforms):
    seen = {"match": 0, "repos": 0, "events": set(), "steps": 0}
    push = engine._Sim.push

    def push_checked(self, t, phase, kind, agent_id, fn):
        # every queued step is followed by a check of the queues
        def step():
            fn()
            check_queues(self)
            seen["steps"] += 1
        push(self, t, phase, kind, agent_id, step)

    monkeypatch.setattr(engine._Sim, "push", push_checked)

    def match(ctx):
        sim = sims[-1]
        counts = check_queues(sim)
        # called only when a pair can form, with live read-only idle views
        assert ctx.idle and ctx.requests
        assert set(ctx.idle) == set(ctx.positions)
        for d in ctx.idle:
            assert ctx.positions[d] == sim.drivers[d].position
        with pytest.raises(TypeError):
            ctx.positions[next(iter(ctx.idle))] = 0
        seen["match"] += bool(counts)
        return default_match(ctx)

    def repos(ctx):
        sim = sims[-1]
        counts = check_queues(sim)
        # a read-only live view of the queue counts
        assert dict(ctx.open_requests) == counts
        with pytest.raises(TypeError):
            ctx.open_requests[0] = 1
        seen["repos"] += bool(counts)
        return repos_to_demand(ctx)

    for seed in range(6):
        cfg = make_cfg(
            60, 3, horizon=1800.0, seed=seed, platforms=platforms,
            behaviour={"max_wait_s": 30.0, "decline_eta_s": 60.0,
                       "max_rejections": 3},
            decisions={"f_trav_mode": "max_wait",
                       "f_driver_decline": "decline_far_pickup"},
        )
        net, requests, drivers = busy_inputs(cfg, rows=4, cols=4)
        dec = dataclasses.replace(
            build_decision_set(cfg.decisions, cfg.behaviour),
            f_match=match, f_driver_repos=repos)
        res = run(cfg, net, requests, assign_fleets(drivers, cfg.platforms),
                  decision_set=dec)
        check_queues(sims[-1])
        assert not sims[-1].open_counts
        seen["events"] |= set(names(res.log))
    assert seen["match"] > 0 and seen["repos"] > 0 and seen["steps"] > 0
    assert {"DECLINES_REQUEST", "REJECTS_OFFER", "UNSERVED",
            "STARTS_REPOSITIONING"} <= seen["events"]


@pytest.mark.parametrize("platform", [INSTANT, dict(BATCHED, platform_id=0)],
                         ids=["instant", "batched"])
def test_no_match_call_without_drivers(platform):
    cfg = make_cfg(3, 0, platforms=[platform])
    calls = []

    def spy(ctx):
        calls.append(ctx.platform_id)
        return default_match(ctx)

    dec = dataclasses.replace(build_decision_set(None, cfg.behaviour), f_match=spy)
    res = run(cfg, line_net(),
              [Request(i, i, 0, 2, 100.0 * i) for i in range(3)], [],
              decision_set=dec)
    assert calls == []
    assert set(outcomes(res).values()) == {"UNSERVED"}


# ------------------------------------------------- instant passes: fast path

def schedule_matching_every_time(self):
    """``_Sim.schedule_matching`` as it was before instant passes were skipped
    when no pair can form: it pushes an instant pass on every call at a new
    timestamp. The oracle for the fast path."""
    if self.now <= self.horizon and self.resolve_pending != self.now:
        if self.instant:
            self.resolve_pending = self.now
            self.push(self.now, engine._PH_MATCH, engine.PLATFORM, 0,
                      self.on_instant_pass)
    for pid, state in self.platforms.items():
        if state.spec.matching != "batched" or not self.waiting:
            continue
        if state.next_batch_at is not None:
            continue
        boundary = engine.plat.next_batch_boundary(state.spec.batch_window_s, self.now)
        if boundary == self.last_boundary.get(pid):
            boundary += state.spec.batch_window_s
        if boundary > self.horizon:
            continue
        state.next_batch_at = boundary
        self.push(boundary, engine._PH_MATCH, engine.PLATFORM, pid,
                  lambda s=state: self.on_batch_boundary(s))


@pytest.fixture
def instant_passes(monkeypatch):
    """Count the instant passes every engine run makes during the test."""
    count = [0]
    pass_ = engine._Sim.on_instant_pass

    def counted(self):
        count[0] += 1
        return pass_(self)

    monkeypatch.setattr(engine._Sim, "on_instant_pass", counted)
    return count


def preset_base(name):
    raw = json.loads(presets.read_text(name))
    return raw.get("base", raw)


def mixed_mode(window_s):
    """e3's split fleets, with platform 0 batched and platform 1 instant."""
    raw = preset_base("e3")
    raw["platforms"][0]["matching"] = {"batched": {"window_s": window_s}}
    raw["behaviour"] = {"t_board_s": 0.0, "t_alight_s": 0.0}
    return raw


def on_the_window_grid(inputs):
    """The inputs with each request time rounded to a multiple of 30 s, so
    requests, rides and batch boundaries share timestamps."""
    requests = sorted(
        (dataclasses.replace(r, t_request=30.0 * round(r.t_request / 30.0))
         for r in inputs.requests),
        key=lambda r: (r.t_request, r.request_id))
    return dataclasses.replace(inputs, requests=tuple(requests))


def test_skipped_instant_passes_match_slow_path(monkeypatch, instant_passes):
    cases = [(name, preset_base(name)) for name in ("e1", "e2", "e3", "e4")]
    cases += [(f"mixed {w} s", mixed_mode(w)) for w in (1.0, 30.0)]
    cases += [(f"mixed {w} s on grid", mixed_mode(w)) for w in (1.0, 30.0)]
    networks = {}
    passes = {"fast": 0, "slow": 0}
    for label, raw in cases:
        for seed in (1, 2, 3):
            cfg = parse_config(dict(raw, seed=seed))
            if cfg.graph not in networks:
                net = cfg.graph.build()
                networks[cfg.graph] = (net, build_skim(net))
            net, skim = networks[cfg.graph]
            inputs = materialize(cfg, net=net, skim=skim)
            if label.endswith("on grid"):
                inputs = on_the_window_grid(inputs)
            dec = build_decision_set(cfg.decisions, cfg.behaviour)
            logs = {}
            for path in ("fast", "slow"):
                with monkeypatch.context() as m:
                    if path == "slow":
                        m.setattr(engine._Sim, "schedule_matching",
                                  schedule_matching_every_time)
                    before = instant_passes[0]
                    logs[path] = run_day(cfg, inputs, dec).log
                    passes[path] += instant_passes[0] - before
            assert logs["fast"] == logs["slow"], (label, seed)
            if label.startswith("mixed"):
                assert {"MATCH", "BATCH_MATCH"} <= set(names(logs["fast"])), \
                    (label, seed)
    assert 0 < passes["fast"] < passes["slow"]


def test_no_instant_pass_without_a_possible_pair(instant_passes):
    register("f_driver_out", "test_all_stay_out", lambda ctx: True)
    cfg = make_cfg(20, 4, decisions={"f_driver_out": "test_all_stay_out"})
    net, requests, drivers = busy_inputs(cfg)
    res = run(cfg, net, requests, drivers)
    assert names(res.log, kind="DRIVER") == ["OPTS_OUT"] * 4
    assert names(res.log).count("REQUESTS") == 20
    assert instant_passes[0] == 0
    cfg = make_cfg(0, 4)
    res = run(cfg, net, [], drivers)
    assert names(res.log).count("STARTS_SHIFT") == 4 and len(res.log) == 8
    assert instant_passes[0] == 0


# ------------------------------------------ zero-length dwell: fast path

def on_pickup_arrival_via_queue(self, driver, dist):
    """``_Sim.on_pickup_arrival`` as it was before zero-length boarding ran
    inline: the departure always goes through the event queue. With
    ``on_service_arrival_via_queue``, the oracle for the fast path."""
    offer = driver.serving
    request = self.travellers[offer.request_id].request
    d_id = driver.spec.driver_id
    driver.position = request.origin
    self.record(engine.DRIVER, d_id, "ARRIVES_PICKUP", request.origin,
                request.request_id, offer.platform_id, *engine._NO_DETAIL[:5], dist)
    boarding = self._timed("t_board_s")
    self.push(self.now + boarding, engine._PH_STATE, engine.DRIVER, d_id,
              lambda: self.on_departure(driver))


def on_service_arrival_via_queue(self, driver, dist):
    """``_Sim.on_service_arrival`` with the ride's completion always queued."""
    request = self.travellers[driver.serving.request_id].request
    driver.position = request.destination
    alight = self._timed("t_alight_s")
    self.push(self.now + alight, engine._PH_STATE, engine.DRIVER, driver.spec.driver_id,
              lambda: self.on_ride_complete(driver, dist))


@pytest.fixture
def pushes(monkeypatch):
    """Count the events every engine run pushes during the test."""
    count = [0]
    push = engine._Sim.push

    def counted(self, *args):
        count[0] += 1
        return push(self, *args)

    monkeypatch.setattr(engine._Sim, "push", counted)
    return count


DWELLS = [
    {},                                                     # both inline
    {"t_board_s": 15.0, "t_alight_s": 10.0, "service_variability": 0.3},
    {"t_alight_s": 10.0, "service_variability": 0.3},       # boarding inline
]


def test_inline_dwell_steps_match_slow_path(monkeypatch, pushes):
    cases = [(f"{name} seed {seed} dwell {k}",
              dict(preset_base(name), seed=seed, behaviour=dwell))
             for name in ("e1", "e2", "e3", "e4") for seed in (1, 2, 3)
             for k, dwell in enumerate(DWELLS)]
    rng = np.random.default_rng(16)
    cases += [(f"random {i}", random_scenario_raw(rng)) for i in range(50)]
    networks = {}
    total = {"fast": 0, "slow": 0}
    for label, raw in cases:
        cfg = parse_config(raw)
        if cfg.graph not in networks:
            net = cfg.graph.build()
            networks[cfg.graph] = (net, build_skim(net))
        net, skim = networks[cfg.graph]
        inputs = materialize(cfg, net=net, skim=skim)
        dec = build_decision_set(cfg.decisions, cfg.behaviour)
        logs, pushed = {}, {}
        for path in ("fast", "slow"):
            with monkeypatch.context() as m:
                if path == "slow":
                    m.setattr(engine._Sim, "on_pickup_arrival",
                              on_pickup_arrival_via_queue)
                    m.setattr(engine._Sim, "on_service_arrival",
                              on_service_arrival_via_queue)
                before = pushes[0]
                logs[path] = run_day(cfg, inputs, dec).log
                pushed[path] = pushes[0] - before
        assert logs["fast"] == logs["slow"], label
        # one push saved per zero-length step of each ride
        rides = names(logs["fast"]).count("COMPLETES_RIDE")
        inline = sum(cfg.behaviour.get(k, 0.0) == 0.0 for k in ("t_board_s", "t_alight_s"))
        assert pushed["slow"] - pushed["fast"] == inline * rides, label
        total["fast"] += pushed["fast"]
        total["slow"] += pushed["slow"]
    assert 0 < total["fast"] < total["slow"]
