"""Log validation and KPI reconstruction tests."""

import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridesim import presets
from ridesim.decisions import build_decision_set
from ridesim.engine import EventRecord, run_day
from ridesim.errors import ConfigError, LogValidationError, SimulationError
from ridesim.experiments import day_to_day
from ridesim.kpi import (
    _META_KEYS,
    EVENTS_HEADER,
    NodeKpi,
    driver_kpis,
    node_aggregates,
    open_events_csv,
    percentile,
    read_events_csv,
    system_kpis,
    traveller_kpis,
    validate_log,
    write_driver_csv,
    write_events_csv,
    write_system_csv,
    write_traveller_csv,
)
from ridesim.netgraph import build_skim, grid_city
from ridesim.platforms import settle
from ridesim.scenario import (
    DriverSpec,
    Request,
    ScenarioInputs,
    generate_demand,
    generate_supply,
    materialize,
    parse_config,
)
from ridesim.util import fmt_num

from tests import kpi_oracle
from tests.test_acceptance import rich_raw
from tests.test_engine import line_net, make_cfg, run


def write_events(path, log):
    with open_events_csv(path) as fh:
        write_events_csv(fh, log)


SINGLE_DRIVER = [DriverSpec(0, home_node=0, shift_start=0.0, shift_end=1000.0,
                            platform_ids=(0,))]


def single_ride_result():
    cfg = make_cfg(1, 1)
    return run(
        cfg, line_net(),
        [Request(0, 0, origin=1, destination=2, t_request=100.0)],
        SINGLE_DRIVER,
    ), cfg


def busy_result(seed=31, n_trav=40, n_drv=5, horizon=3600.0, behaviour=None,
                decisions=None, platforms=None):
    cfg = make_cfg(n_trav, n_drv, horizon=horizon, seed=seed, platforms=platforms,
                   behaviour=behaviour, decisions=decisions)
    net = grid_city(4, 4, 250.0, 10.0)
    requests = generate_demand(net, n_trav, horizon, seed)
    drivers = generate_supply(net, n_drv, horizon, seed, cfg.platforms)
    return run(cfg, net, requests, drivers), cfg, net, requests, drivers


# ---------------------------------------------------------------- validator

def test_valid_logs_pass():
    res, _ = single_ride_result()
    validate_log(res.log)
    busy, *_ = busy_result()
    validate_log(busy.log)


def test_validator_rejects_missing_pickup():
    res, _ = single_ride_result()
    broken = [r for r in res.log if r.event != "PICKED_UP"]
    with pytest.raises(LogValidationError, match="ARRIVES"):
        validate_log(broken)


def test_validator_rejects_time_reversal():
    res, _ = single_ride_result()
    log = list(res.log)
    log[0], log[-1] = log[-1], log[0]
    with pytest.raises(LogValidationError, match="backwards|cannot go"):
        validate_log(log)


def test_validator_rejects_unfinished_story():
    res, _ = single_ride_result()
    truncated = [r for r in res.log if r.event != "ENDS_SHIFT"]
    with pytest.raises(LogValidationError, match="not terminal"):
        validate_log(truncated)


def test_validator_rejects_unknown_event():
    bad = [EventRecord(0, 0.0, "TRAVELLER", 0, "TELEPORTS", 0)]
    with pytest.raises(LogValidationError, match="TELEPORTS"):
        validate_log(bad)


def test_validator_rejects_offer_before_request():
    bad = [
        EventRecord(0, 0.0, "TRAVELLER", 0, "PLANS", 0),
        EventRecord(0, 0.0, "TRAVELLER", 0, "RECEIVES_OFFER", 0),
    ]
    with pytest.raises(LogValidationError, match="RECEIVES_OFFER"):
        validate_log(bad)


# -------------------------------------------------------------- percentiles

def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile([7.0], 90) == 7.0
    assert percentile([], 50) is None
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


# ----------------------------------------------------------- traveller rows

def test_single_ride_traveller_row():
    res, _ = single_ride_result()
    rows = traveller_kpis(validate_log(res.log))
    assert len(rows) == 1
    row = rows[0]
    assert row.outcome == "ARRIVED"
    assert row.wait_s == 60.0
    assert row.in_vehicle_s == 120.0
    assert row.total_s == 180.0
    assert row.fare_paid == 1.2


def test_unserved_traveller_row_has_null_times():
    cfg = make_cfg(1, 0, horizon=500.0)
    res = run(cfg, line_net(), [Request(0, 0, 1, 2, 100.0)], [])
    row = traveller_kpis(validate_log(res.log))[0]
    assert row.outcome == "UNSERVED"
    assert row.wait_s is None and row.fare_paid is None


# -------------------------------------------------------------- driver rows

def test_single_ride_driver_row():
    res, _ = single_ride_result()
    row = driver_kpis(validate_log(res.log))[0]
    assert row.participated
    assert row.n_rides == 1
    assert row.revenue == 1.2
    assert row.idle_s == 820.0
    assert row.empty_drive_s == 60.0
    assert row.occupied_s == 120.0
    assert row.empty_drive_m == 600.0
    assert row.occupied_m == 1200.0
    assert row.mileage_m == 1800.0
    assert row.first_match_wait_s == 100.0
    assert row.shift_s == 1000.0


def leg_oracle(log, requests, skim, t_alight_s):
    """Per driver (empty_m, empty_s, occupied_m, occupied_s) from the skim
    on its logged legs: pickups from the accepting node to the request's
    origin, rides from origin to destination plus alighting, repositioning
    from the start node to the target."""
    by_id = {r.request_id: r for r in requests}
    out = {}
    accept_node = {}
    for rec in log:
        if rec.agent_kind != "DRIVER":
            continue
        legs = out.setdefault(rec.agent_id, [0.0, 0.0, 0.0, 0.0])
        if rec.event == "ACCEPTS_REQUEST":
            accept_node[rec.agent_id] = rec.node
        elif rec.event == "ARRIVES_PICKUP":
            a, b = accept_node[rec.agent_id], by_id[rec.request_id].origin
            legs[0] += skim.distance[a, b]
            legs[1] += skim.travel_time[a, b]
        elif rec.event == "COMPLETES_RIDE":
            r = by_id[rec.request_id]
            legs[2] += skim.distance[r.origin, r.destination]
            legs[3] += skim.travel_time[r.origin, r.destination] + t_alight_s
        elif rec.event == "STARTS_REPOSITIONING":
            legs[0] += skim.distance[rec.node, rec.target]
            legs[1] += skim.travel_time[rec.node, rec.target]
    return out


def test_driver_rows_match_skim_oracle():
    plain = busy_result(seed=13)
    repos = busy_result(
        seed=13, n_trav=120, behaviour={"t_board_s": 20.0, "t_alight_s": 15.0},
        decisions={"f_driver_repos": "repos_to_demand"},
        platforms=[{"platform_id": 0, "base_fare": 0.5, "fare_per_km": 1.0,
                    "commission_rate": 0.2, "matching": "instant"}])
    assert any(r.event == "STARTS_REPOSITIONING" for r in repos[0].log)
    for (res, cfg, net, requests, drivers), t_alight in ((plain, 0.0), (repos, 15.0)):
        oracle = leg_oracle(res.log, requests, build_skim(net), t_alight)
        specs = {d.driver_id: d for d in drivers}
        # a driver's revenue is the payout of every ride it was matched to
        by_platform = {p.platform_id: p for p in cfg.platforms}
        payouts = {}
        for rec in res.log:
            if rec.event in ("MATCH", "BATCH_MATCH"):
                payout = settle(by_platform[rec.agent_id], rec.fare)[0]
                payouts[rec.driver_id] = payouts.get(rec.driver_id, 0.0) + payout
        rows = driver_kpis(validate_log(res.log))
        assert sum(r.participated for r in rows) > 0
        for row in rows:
            if not row.participated:
                continue
            empty_m, empty_s, occupied_m, occupied_s = oracle[row.driver_id]
            assert row.revenue == pytest.approx(payouts.get(row.driver_id, 0.0),
                                                abs=1e-9)
            assert row.empty_drive_m == pytest.approx(empty_m, abs=1e-6)
            assert row.empty_drive_s == pytest.approx(empty_s, abs=1e-6)
            assert row.occupied_m == pytest.approx(occupied_m, abs=1e-6)
            assert row.occupied_s == pytest.approx(occupied_s, abs=1e-6)
            assert row.mileage_m == pytest.approx(empty_m + occupied_m, abs=1e-6)
            worked = row.idle_s + row.empty_drive_s + row.occupied_s
            assert worked == pytest.approx(row.shift_s, abs=1e-6)
            # the realized shift may overshoot the scheduled one, never undershoot
            spec = specs[row.driver_id]
            assert row.shift_s >= spec.shift_end - spec.shift_start - 1e-6


def test_opted_out_driver_row():
    log = [EventRecord(0, 0.0, "DRIVER", 3, "OPTS_OUT", 2)]
    row = driver_kpis(validate_log(log))[0]
    assert not row.participated
    assert row.n_rides == 0 and row.revenue == 0.0
    assert row.idle_s is None and row.shift_s is None


# --------------------------------------------------------------- system row

def test_single_ride_system_row():
    res, cfg = single_ride_result()
    replay = validate_log(res.log)
    trows = traveller_kpis(replay)
    drows = driver_kpis(replay)
    sys_row = system_kpis(res.day, trows, drows, cfg.platforms, SINGLE_DRIVER, replay)
    assert sys_row["n_travellers"] == 1
    assert sys_row["n_served"] == 1
    assert sys_row["n_unserved"] == 0
    assert sys_row["wait_mean_s"] == 60.0
    assert sys_row["wait_median_s"] == 60.0
    assert sys_row["wait_p90_s"] == 60.0
    assert sys_row["fleet_participating"] == 1
    assert sys_row["driver_idle_mean_s"] == 820.0
    assert sys_row["driver_first_match_wait_mean_s"] == 100.0
    assert sys_row["vkm_empty"] == 0.6
    assert sys_row["vkm_occupied"] == 1.2
    assert sys_row["vkm_total"] == pytest.approx(1.8)
    assert sys_row["revenue_platform_0"] == 1.2
    assert sys_row["n_served_platform_0"] == 1
    assert sys_row["vkm_platform_0"] == pytest.approx(1.8)
    assert sys_row["fleet_platform_0"] == 1


def test_outcome_partition():
    res, cfg, *_, drivers = busy_result(seed=3, behaviour={"max_wait_s": 150.0})
    replay = validate_log(res.log)
    trows = traveller_kpis(replay)
    drows = driver_kpis(replay)
    sys_row = system_kpis(res.day, trows, drows, cfg.platforms, drivers, replay)
    total = (sys_row["n_served"] + sys_row["n_unserved"]
             + sys_row["n_opted_out"] + sys_row["n_rejected"])
    assert total == sys_row["n_travellers"] == 40


def test_occupied_time_equals_in_vehicle_time():
    res, cfg, *_ = busy_result(seed=17)
    replay = validate_log(res.log)
    trows = traveller_kpis(replay)
    drows = driver_kpis(replay)
    in_vehicle = sum(r.in_vehicle_s for r in trows if r.in_vehicle_s is not None)
    occupied = sum(r.occupied_s for r in drows if r.occupied_s is not None)
    assert occupied == pytest.approx(in_vehicle, abs=1e-6)


def test_money_conservation_from_rows():
    res, cfg, *_, drivers = busy_result(seed=29)
    replay = validate_log(res.log)
    trows = traveller_kpis(replay)
    drows = driver_kpis(replay)
    sys_row = system_kpis(res.day, trows, drows, cfg.platforms, drivers, replay)
    fares = sum(r.fare_paid for r in trows if r.fare_paid is not None)
    assert sys_row["revenue_platform_0"] == pytest.approx(fares, abs=1e-9)
    # commission 0 in make_cfg platforms: payouts equal fares
    payouts = sum(r.revenue for r in drows)
    assert payouts == pytest.approx(fares, abs=1e-9)


def test_first_match_wait_censored_at_shift():
    cfg = make_cfg(1, 2)
    drivers = [
        DriverSpec(0, 1, 0.0, 1000.0, (0,)),    # matched at t=100
        DriverSpec(1, 2, 0.0, 800.0, (0,)),     # never matched
    ]
    res = run(cfg, line_net(), [Request(0, 0, 1, 2, 100.0)], drivers)
    replay = validate_log(res.log)
    drows = driver_kpis(replay)
    assert drows[1].first_match_wait_s is None
    sys_row = system_kpis(res.day, traveller_kpis(replay), drows, cfg.platforms, drivers,
                          replay)
    assert sys_row["driver_first_match_wait_mean_s"] == (100.0 + 800.0) / 2


def test_two_platform_fleet_fields():
    platforms = [
        {"platform_id": 0, "base_fare": 0.0, "fare_per_km": 1.0,
         "commission_rate": 0.0, "matching": "instant", "fleet": 1},
        {"platform_id": 1, "base_fare": 0.0, "fare_per_km": 2.0,
         "commission_rate": 0.0, "matching": "instant"},
    ]
    cfg = make_cfg(1, 3, platforms=platforms)
    drivers = [
        DriverSpec(0, 1, 0.0, 1000.0, (0,)),
        DriverSpec(1, 2, 0.0, 1000.0, (1,)),
        DriverSpec(2, 0, 0.0, 1000.0, (1,)),
    ]
    res = run(cfg, line_net(), [Request(0, 0, 1, 2, 50.0)], drivers)
    replay = validate_log(res.log)
    sys_row = system_kpis(res.day, traveller_kpis(replay), driver_kpis(replay),
                          cfg.platforms, drivers, replay)
    assert sys_row["fleet_platform_0"] == 1
    assert sys_row["fleet_platform_1"] == 2      # the non-dedicated remainder
    assert sys_row["n_served_platform_0"] == 1   # cheaper platform wins
    assert sys_row["n_served_platform_1"] == 0
    assert sys_row["revenue_platform_1"] == 0.0


def test_rides_on_a_platform_the_config_lacks_fail_validation(tmp_path):
    # a stored log scored against a config without its platform 1
    res, cfg = single_ride_result()
    log = [rec._replace(platform_id=1) if rec.platform_id == 0 else rec
           for rec in res.log]
    path = tmp_path / "events.csv"
    write_events(path, log)
    replay = validate_log(read_events_csv(path))
    with pytest.raises(LogValidationError, match=r"^day 0: rides on platform 1, "):
        system_kpis(0, traveller_kpis(replay), driver_kpis(replay), cfg.platforms,
                    SINGLE_DRIVER, replay)


def test_stored_multi_day_log_is_scored_one_day_at_a_time(tmp_path):
    # the events.csv of ``ridesim run --days 3`` holds all three days
    cfg = parse_config(json.loads(presets.read_text("e4")))
    path = tmp_path / "events.csv"
    with open_events_csv(path) as fh:
        res = day_to_day(cfg, max_days=3, on_day=lambda log: write_events_csv(fh, log))
    assert len(res.system_rows) == 3
    log = read_events_csv(path)
    replay = validate_log(log)
    inputs = materialize(cfg)
    with pytest.raises(LogValidationError, match=r"^day 0: the log also holds day\(s\) 1, 2;"):
        system_kpis(0, traveller_kpis(replay), driver_kpis(replay), cfg.platforms,
                    inputs.drivers, replay)
    for d, want in enumerate(res.system_rows):
        day = validate_log([rec for rec in log if rec.day == d])
        assert system_kpis(d, traveller_kpis(day), driver_kpis(day), cfg.platforms,
                           inputs.drivers, day) == want
    assert tuple(node_aggregates(day, inputs.net.n)) == res.nodes    # the last day's


# ---------------------------------------------------------------- node rows

def test_node_aggregates_by_origin_and_home():
    cfg = make_cfg(3, 1, horizon=4000.0)
    net = line_net()
    requests = [
        Request(0, 0, 1, 2, 10.0),
        Request(1, 1, 1, 0, 600.0),
        Request(2, 2, 2, 0, 2000.0),
    ]
    drivers = [DriverSpec(0, 1, 0.0, 4000.0, (0,))]
    res = run(cfg, net, requests, drivers)
    replay = validate_log(res.log)
    rows = node_aggregates(replay, net.n)
    # the driver counts at its home, the node it starts from, not where it ends
    assert [rec.node for rec in res.log if rec.agent_kind == "DRIVER"][-1] == 0
    assert [r.node for r in rows] == [0, 1, 2]
    assert rows[1].n_requests == 2
    assert rows[2].n_requests == 1
    assert rows[0].n_requests == 0
    assert [r.n_drivers_home for r in rows] == [0, 1, 0]
    assert rows[0].wait_mean_s is None
    assert rows[1].wait_mean_s is not None
    assert rows == kpi_oracle.node_aggregates(
        traveller_kpis(replay), driver_kpis(replay), requests, drivers, net)


def test_node_aggregates_count_opt_outs_at_home_and_not_as_requests():
    log = [EventRecord(0, 0.0, "DRIVER", 3, "OPTS_OUT", 2),
           EventRecord(0, 5.0, "TRAVELLER", 0, "PLANS", 1),
           EventRecord(0, 5.0, "TRAVELLER", 0, "OPTS_OUT", 1)]
    assert node_aggregates(validate_log(log), 3) == [
        NodeKpi(0, 0, None, 0, None), NodeKpi(1, 0, None, 0, None),
        NodeKpi(2, 0, None, 1, None)]


@pytest.mark.parametrize("node", [-1, 9])
def test_node_aggregates_reject_a_node_outside_the_graph(node):
    # a stored log's origin must be one of the graph's nodes
    log = [EventRecord(0, 0.0, "TRAVELLER", 4, "PLANS", node),
           EventRecord(0, 0.0, "TRAVELLER", 4, "OPTS_OUT", node)]
    with pytest.raises(LogValidationError,
                       match=rf"^day 0: traveller 4 starts at node {node}, outside the 9 nodes$"):
        node_aggregates(validate_log(log), 9)


# ------------------------------------------------------------------ CSV I/O

META_DETAIL = dict(request_id=3, platform_id=1, driver_id=4, eta_s=60.0,
                   fare=1.2, payout=0.9, cut=0.3, dist_m=600.0, target=5,
                   reason="horizon")
META_TEXT = {
    "UNSERVED": "reason=horizon",
    "RECEIVES_OFFER": "platform_id=1;driver_id=4;fare=1.2;eta_s=60",
    "ACCEPTS_OFFER": "platform_id=1;driver_id=4;fare=1.2;eta_s=60",
    "REJECTS_OFFER": "platform_id=1;driver_id=4;fare=1.2;eta_s=60",
    "PICKED_UP": "driver_id=4;platform_id=1",
    "RECEIVES_REQUEST": "request_id=3;platform_id=1;eta_s=60",
    "ACCEPTS_REQUEST": "request_id=3;platform_id=1;eta_s=60",
    "DECLINES_REQUEST": "request_id=3;platform_id=1",
    "ARRIVES_PICKUP": "request_id=3;platform_id=1;dist_m=600",
    "DEPARTS_WITH_TRAVELLER": "request_id=3;platform_id=1",
    "COMPLETES_RIDE":
        "request_id=3;platform_id=1;dist_m=600;fare=1.2;payout=0.9;cut=0.3",
    "STARTS_REPOSITIONING": "target=5",
    "ARRIVES_REPOSITION": "dist_m=600",
    "MATCH": "request_id=3;driver_id=4;eta_s=60;fare=1.2",
    "BATCH_MATCH": "request_id=3;driver_id=4;eta_s=60;fare=1.2",
}


def meta_golden_log():
    """Every meta event, plus one with no details, each carrying all of
    META_DETAIL."""
    events = list(META_TEXT) + ["PLANS"]
    return [EventRecord(0, 1.5, "DRIVER", 7, e, 2, **META_DETAIL) for e in events]


def test_meta_text_golden(tmp_path):
    assert set(META_TEXT) == set(_META_KEYS)
    path = tmp_path / "events.csv"
    write_events(path, meta_golden_log())
    lines = path.read_text().splitlines()[1:]
    assert [line.split(",", 6)[6] for line in lines] == \
        list(META_TEXT.values()) + [""]
    assert lines[-1] == "0,1.5,DRIVER,7,PLANS,2,"
    # reading back yields exactly the fields the meta column carries
    back = read_events_csv(path)
    for rec in back:
        kept = {k: v for k, v in META_DETAIL.items() if k in _META_KEYS.get(rec.event, ())}
        assert rec == EventRecord(0, 1.5, "DRIVER", 7, rec.event, 2, **kept)
        for key, value in kept.items():
            assert type(getattr(rec, key)) is type(value)


def test_read_events_csv_rejects_unknown_meta_key(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("day,t_s,agent_kind,agent_id,event,node,meta\n"
                    "0,0,TRAVELLER,0,UNSERVED,0,colour=red\n")
    with pytest.raises(ConfigError, match="malformed row"):
        read_events_csv(path)


def _meta_variants():
    """(event, meta text) for each event's meta with one key dropped, with
    one key it does not write added, with a key repeated and with two keys
    swapped; none of them may be read."""
    for event in [*META_TEXT, "PLANS"]:
        parts = META_TEXT[event].split(";") if event in META_TEXT else []
        for i in range(len(parts)):
            yield event, ";".join(parts[:i] + parts[i + 1:])
        foreign = next(k for k in META_DETAIL if k not in _META_KEYS.get(event, ()))
        yield event, ";".join([*parts, f"{foreign}={META_DETAIL[foreign]}"])
    yield "UNSERVED", "reason=horizon;reason=horizon"
    yield "PICKED_UP", "platform_id=1;driver_id=4"


@pytest.mark.parametrize("event,meta", list(_meta_variants()))
def test_read_events_csv_rejects_meta_not_of_its_event(event, meta, tmp_path):
    path = tmp_path / "events.csv"
    write_events(path, meta_golden_log())
    lines = path.read_text().splitlines()
    row = 2 + [*META_TEXT, "PLANS"].index(event)        # the header is line 1
    lines[row - 1] = f"0,1.5,DRIVER,7,{event},2,{meta}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"events\.csv:row {row}$") as err:
        read_events_csv(path)
    parts = meta.split(";")
    expected = ";".join(_META_KEYS.get(event, ())) or "(none)"
    assert (f"must have the keys {expected}" if len(set(parts)) == len(parts)
            else "malformed row") in str(err.value)


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_read_events_csv_rejects_non_finite_times(text, tmp_path):
    # every row of traveller 0 in an e1 day; NaN would pass the time order
    logs = []
    day_to_day(parse_config(json.loads(presets.read_text("e1"))), 1, on_day=logs.append)
    path = tmp_path / "events.csv"
    write_events(path, logs[0])
    lines = path.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.split(",")[2:4] == ["TRAVELLER", "0"]]
    for i in rows:
        day, _, rest = lines[i].split(",", 2)
        lines[i] = f"{day},{text},{rest}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"^malformed row .*events\.csv:row {rows[0] + 1}$"):
        read_events_csv(path)


@pytest.mark.parametrize("key", ["eta_s", "fare", "payout", "cut", "dist_m"])
@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
def test_read_events_csv_rejects_non_finite_meta(key, text, tmp_path):
    path = tmp_path / "events.csv"
    write_events(path, meta_golden_log())
    lines = path.read_text().splitlines()
    row = 2 + next(i for i, keys in enumerate(META_TEXT.values()) if f"{key}=" in keys)
    value = fmt_num(META_DETAIL[key])
    lines[row - 1] = lines[row - 1].replace(f"{key}={value}", f"{key}={text}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"^malformed row .*events\.csv:row {row}$"):
        read_events_csv(path)


@pytest.mark.parametrize("raw", [json.loads(presets.read_text("e1")), rich_raw()],
                         ids=["e1", "rich"])
def test_engine_log_reads_back_equal(raw, tmp_path):
    cfg = parse_config(raw)
    logs = []
    day_to_day(cfg, 1, on_day=logs.append)
    path = tmp_path / "events.csv"
    write_events(path, logs[0])
    assert read_events_csv(path) == tuple(logs[0])


@pytest.mark.parametrize("content", ["byte_ff", "directory", "missing"])
def test_read_events_csv_unreadable_file_names_it(content, tmp_path):
    path = tmp_path / "events.csv"
    if content == "byte_ff":
        path.write_bytes(b"day,t_s,agent_kind,agent_id,event,node,meta\r\n"
                         b"0,0,TRAVELLER,0,PLANS,0,\xff\r\n")
    elif content == "directory":
        path.mkdir()
    with pytest.raises(ConfigError, match="events.csv"):
        read_events_csv(path)


# --------------------------------------------- the csv.writer form as oracle

def csv_writer_events(path, log):
    """``write_events_csv`` as it was before it streamed rows through one
    f-string each: ``csv.writer`` over cells formatted by ``fmt_num``."""
    def meta(rec):
        return ";".join([
            f"{key}={value if isinstance(value, str) else fmt_num(value)}"
            for key in _META_KEYS.get(rec.event, ())
            if (value := getattr(rec, key)) is not None
        ])

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(EVENTS_HEADER)
        for rec in log:
            w.writerow([rec.day, fmt_num(rec.t), rec.agent_kind, rec.agent_id,
                        rec.event, rec.node, meta(rec)])


def assert_same_bytes(tmp_path, *logs):
    """``write_events_csv``, called once per log of ``logs``, writes the
    bytes the row-at-a-time oracle writes when called the same way, and
    the bytes of ``csv_writer_events`` over all the records."""
    for name, write in (("new", write_events_csv), ("rows", kpi_oracle.write_events_csv)):
        with open_events_csv(tmp_path / f"{name}.csv") as fh:
            for log in logs:
                write(fh, log)
    csv_writer_events(tmp_path / "old.csv", [rec for log in logs for rec in log])
    want = (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "rows.csv").read_bytes() == want
    assert (tmp_path / "new.csv").read_bytes() == want


def test_events_writer_matches_csv_writer_on_e4_days(tmp_path):
    logs = []
    res = day_to_day(parse_config(json.loads(presets.read_text("e4"))),
                     max_days=6, on_day=logs.append)
    assert len(logs) == len(res.trajectory) == 6
    # in one call, and appended a day at a time, as ``ridesim run`` writes it
    assert_same_bytes(tmp_path, [rec for log in logs for rec in log])
    assert_same_bytes(tmp_path, *logs)


def test_events_writer_matches_csv_writer_on_meta_golden(tmp_path):
    assert_same_bytes(tmp_path, meta_golden_log())


def _ride(t, v, **detail):
    """A COMPLETES_RIDE record at ``t`` with every number field ``v``."""
    return EventRecord(0, t, "DRIVER", 1, "COMPLETES_RIDE", 0, **{
        "request_id": 2, "platform_id": 0, "dist_m": v, "fare": v, "payout": v,
        "cut": -v, **detail})


def test_events_writer_matches_csv_writer_on_float_edges(tmp_path):
    values = [-0.0, 1e16, 1e-07, 0.1 + 0.2, float("inf"), 2, 0, -3, 0.5, 123456.789]
    log = [_ride(t, v) for t, v in zip([0.0, 0.0, 1e-07, 0.30000000000000004, 30, 30,
                                        60.5, 1e16, -0.0, 7], values)]
    log.append(EventRecord(1, 45, "PLATFORM", 0, "BATCH_MATCH", 3, request_id=4,
                           driver_id=5, eta_s=12, fare=float("-inf")))
    assert_same_bytes(tmp_path, log)


SUBNORMALS = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0],        # equal, and written alike
    [float("nan"), float("nan"), 1.5, float("-nan")],
    [float("inf"), float("-inf"), float("inf"), 1e308, 1.7976931348623157e308],
    [1e16, 1e16 + 2, 2.0 ** 53, 2.0 ** 53 + 2, 1e22, 1e300, -1e16],
    SUBNORMALS + SUBNORMALS,
], ids=["neg_zero_first", "zero_first", "nan", "inf", "large", "subnormal"])
def test_events_writer_matches_the_oracles_on_float_cases(values, tmp_path):
    # each value as a time and in each number field, then again as each
    log = [_ride(v, v) for v in values] + [_ride(1.0, 0.5, fare=v) for v in values]
    assert_same_bytes(tmp_path, log)


def test_events_writer_matches_the_oracles_on_numpy_and_big_ints(tmp_path):
    big = 2 ** 53 + 1           # no float holds it: fmt_num writes it exactly
    log = [
        _ride(np.float64(2.5), np.float64(0.1), request_id=big, platform_id=2 ** 63),
        _ride(np.float64(3.0), 0.1, request_id=np.int64(7), platform_id=np.int64(2 ** 40)),
        _ride(3.0, 0.2, request_id=np.int64(2 ** 53 + 1)),    # fmt_num rounds it
        _ride(2.5, np.float64(0.1)),
        EventRecord(0, 4.0, "TRAVELLER", big, "PICKED_UP", 3, driver_id=big,
                    platform_id=np.int64(1)),
        EventRecord(0, np.float32(4.5), "DRIVER", 1, "STARTS_REPOSITIONING", 0,
                    target=np.int32(6)),
        EventRecord(0, 5, "PLATFORM", 0, "MATCH", -1, request_id=3, driver_id=4,
                    eta_s=np.int64(12), fare=np.float32(1.1)),
    ]
    assert_same_bytes(tmp_path, log)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(), st.floats(),
                          st.one_of(st.floats(), st.integers(-2 ** 64, 2 ** 64))),
                max_size=30))
def test_events_writer_matches_the_oracles_on_random_floats(rows):
    log = [_ride(t, v, fare=x) if i % 2 else
           EventRecord(0, t, "PLATFORM", 0, "MATCH", -1, request_id=i, driver_id=1,
                       eta_s=v, fare=x)
           for i, (t, v, x) in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_bytes(Path(tmp), log)


def test_event_csv_round_trip(tmp_path):
    res, *_ = busy_result(seed=41)
    path = tmp_path / "events.csv"
    write_events(path, res.log)
    back = read_events_csv(path)
    assert back == res.log


def test_kpis_pure_function_of_stored_log(tmp_path):
    res, cfg, net, _, drivers = busy_result(seed=43, behaviour={"max_wait_s": 200.0})
    path = tmp_path / "events.csv"
    write_events(path, res.log)
    back = read_events_csv(path)
    stored = validate_log(back)
    replay = validate_log(res.log)
    assert traveller_kpis(stored) == traveller_kpis(replay)
    assert driver_kpis(stored) == driver_kpis(replay)
    assert system_kpis(res.day, traveller_kpis(stored), driver_kpis(stored),
                       cfg.platforms, drivers, stored) == \
        system_kpis(res.day, traveller_kpis(replay), driver_kpis(replay),
                    cfg.platforms, drivers, replay)
    assert node_aggregates(stored, net.n) == node_aggregates(replay, net.n)


@pytest.mark.parametrize("field, where", [
    ("payout", r"^day 0: driver \d+ KPI revenue overflows to inf$"),
    ("fare", r"^day 0: system KPI revenue_platform_0 overflows to inf$"),
])
def test_kpi_sum_that_overflows_raises(field, where):
    # every logged value is finite; the sums over two or more rides are not
    res, cfg, *_, drivers = busy_result()
    log = [rec._replace(**{field: 1e308}) if rec.event == "COMPLETES_RIDE" else rec
           for rec in res.log]
    replay = validate_log(log)
    with pytest.raises(SimulationError, match=where):
        system_kpis(0, traveller_kpis(replay), driver_kpis(replay), cfg.platforms,
                    drivers, replay)


def test_null_cells_written_empty(tmp_path):
    cfg = make_cfg(1, 0, horizon=500.0)
    res = run(cfg, line_net(), [Request(0, 0, 1, 2, 100.0)], [])
    path = tmp_path / "kpi_travellers.csv"
    write_traveller_csv(path, traveller_kpis(validate_log(res.log)))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "traveller_id,outcome,wait_s,in_vehicle_s,total_s,fare_paid"
    assert lines[1] == "0,UNSERVED,,,,"


def test_system_csv_multi_day_union_header(tmp_path):
    rows = [
        {"day": 0, "n_served": 3, "wait_mean_s": 10.0},
        {"day": 1, "n_served": 4, "wait_mean_s": None, "extra": 1.5},
    ]
    path = tmp_path / "kpi_system.csv"
    write_system_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "day,n_served,wait_mean_s,extra"
    assert lines[1] == "0,3,10,"
    assert lines[2] == "1,4,,1.5"


def test_driver_csv_round_numbers(tmp_path):
    res, _ = single_ride_result()
    path = tmp_path / "kpi_drivers.csv"
    write_driver_csv(path, driver_kpis(validate_log(res.log)))
    lines = path.read_text().strip().splitlines()
    assert lines[1].startswith("0,true,1,1.2,820,60,120,600,1200,1800,100,1000")
